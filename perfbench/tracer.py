"""Span tracing by wrapping the names each decomp module imports.

While installed, a Tracer replaces every binding listed in PLAN with a
wrapper that records a span (name, start, end, parent) or only counts
calls, so that a library call made from any module, or from the benchmark
itself, lands in its layer.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus what their child spans
cover.  Nothing is patched unless `install` is called.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (owner, attribute, span name, kind).  The same function is bound in every
# module that imports it, so each binding is listed; kind "count" only counts.
PLAN = [
    ("decomp.ingest", "nerve", "ingest.nerve", "span"),
    ("decomp.cli", "nerve", "ingest.nerve", "span"),
    ("decomp.interval", "nerve_category", "ingest.nerve", "span"),
    ("decomp.formats", "write_sset", "formats.write", "span"),
    ("decomp.formats", "write_xiset", "formats.write", "span"),
    ("decomp.registry", "write_xiset", "formats.write", "span"),
    ("decomp.formats", "parse_any", "formats.parse", "span"),
    ("decomp.formats", "parse_sset", "formats.parse", "span"),
    ("decomp.formats", "parse_xiset", "formats.parse", "span"),
    ("decomp.registry", "parse_xiset", "formats.parse", "span"),
    ("decomp.presheaf", "generator_word", "simplex.generator_word", "count"),
    ("decomp.presheaf", "validate_sset", "presheaf.validate", "span"),
    ("decomp.axioms", "validate_sset", "presheaf.validate", "span"),
    ("decomp.presheaf", "validate_xiset", "presheaf.validate", "span"),
    ("decomp.interval", "validate_xiset", "presheaf.validate", "span"),
    ("decomp.presheaf", "dec_bot", "presheaf.decalage", "span"),
    ("decomp.presheaf", "dec_top", "presheaf.decalage", "span"),
    ("decomp.axioms", "dec_bot", "presheaf.decalage", "span"),
    ("decomp.axioms", "dec_top", "presheaf.decalage", "span"),
    ("decomp.cli", "dec_bot", "presheaf.decalage", "span"),
    ("decomp.cli", "dec_top", "presheaf.decalage", "span"),
    ("decomp.presheaf", "sset_action", "presheaf.sset_action", "count"),
    ("decomp.axioms", "sset_action", "presheaf.sset_action", "count"),
    ("decomp.presheaf", "pullback_failure", "presheaf.pullback", "span"),
    ("decomp.axioms", "pullback_failure", "presheaf.pullback", "span"),
    ("decomp.axioms", "check_segal", "axioms.segal", "span"),
    ("decomp.axioms", "check_decomposition", "axioms.decomposition", "span"),
    ("decomp.interval", "check_decomposition", "axioms.decomposition", "span"),
    ("decomp.incidence", "check_decomposition", "axioms.decomposition", "span"),
    ("decomp.axioms", "check_map_class", "axioms.map_class", "span"),
    ("decomp.incidence", "check_map_class", "axioms.map_class", "span"),
    ("decomp.axioms", "check_mobius", "axioms.mobius_cert", "span"),
    ("decomp.interval", "check_mobius", "axioms.mobius_cert", "span"),
    ("decomp.incidence", "check_mobius", "axioms.mobius_cert", "span"),
    ("decomp.incidence", "comult", "incidence.comult", "span"),
    ("decomp.incidence", "mobius", "incidence.mobius", "span"),
    ("decomp.incidence", "verify_inversion", "incidence.inversion", "span"),
    ("decomp.incidence", "classify", "incidence.classify", "span"),
    ("decomp.incidence", "universal_mobius", "incidence.universal_mobius", "span"),
    ("decomp.interval", "factorisation_interval", "interval.cut", "span"),
    ("decomp.incidence", "factorisation_interval", "interval.cut", "span"),
    ("decomp.registry", "factorisation_interval", "interval.cut", "span"),
    ("decomp.cli", "factorisation_interval", "interval.cut", "span"),
    ("decomp.interval", "extend_interval", "interval.extend", "span"),
    ("decomp.registry", "extend_interval", "interval.extend", "span"),
    ("decomp.interval", "canonicalize_with_map", "interval.canonicalize", "span"),
    ("decomp.registry", "canonicalize_with_map", "interval.canonicalize", "span"),
    ("decomp.interval", "canonical_order", "labeling.canonical_order", "span"),
    ("decomp.registry.Registry", "insert", "registry.insert", "span"),
    ("decomp.registry.Registry", "close", "registry.close", "span"),
    ("decomp.registry.Registry", "save", "registry.save", "span"),
    ("decomp.registry.Registry", "load", "registry.load", "span"),
    ("decomp.registry", "build_fragment", "registry.fragment", "span"),
    ("decomp.incidence", "build_fragment", "registry.fragment", "span"),
    ("decomp.registry", "fragment_square_report", "registry.fragment", "span"),
]

CLI_COMMANDS = [
    "nerve", "check_decomp", "check_segal", "check_mobius", "mobius",
    "coalg_table", "dec_bot", "interval", "check_flanked", "registry_add",
    "registry_close", "registry_list", "registry_mu", "classify",
]

# (metric, unit) reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = [
    ("ingest.nerve_s", "s"), ("ingest.simplices", "count"),
    ("formats.write_s", "s"), ("formats.parse_s", "s"), ("formats.bytes", "bytes"),
    ("simplex.generator_word_calls", "count"),
    ("presheaf.validate_s", "s"), ("presheaf.validate_calls", "count"),
    ("presheaf.decalage_s", "s"), ("presheaf.sset_action_calls", "count"),
    ("presheaf.pullback_checks", "count"), ("presheaf.pullback_s", "s"),
    ("axioms.segal_s", "s"), ("axioms.decomposition_s", "s"),
    ("axioms.map_class_s", "s"), ("axioms.mobius_cert_s", "s"),
    ("incidence.comult_s", "s"), ("incidence.mobius_s", "s"),
    ("incidence.inversion_s", "s"), ("incidence.classify_s", "s"),
    ("incidence.universal_mobius_s", "s"),
    ("interval.cut_s", "s"), ("interval.cut_calls", "count"),
    ("interval.extend_s", "s"), ("interval.extend_calls", "count"),
    ("interval.canonicalize_s", "s"), ("interval.canonicalize_calls", "count"),
    ("interval.canonicalize_new_ratio", "ratio"),
    ("labeling.canonical_order_s", "s"), ("labeling.canonical_order_calls", "count"),
    ("registry.insert_s", "s"), ("registry.close_s", "s"), ("registry.save_s", "s"),
    ("registry.load_s", "s"), ("registry.fragment_s", "s"),
    ("registry.entries", "count"),
] + [(f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS] + [("trace.overhead_s", "s")]

# Call counts that a traced run reports under a name other than <span>_calls.
_CALL_METRICS = {"presheaf.pullback_checks": "presheaf.pullback"}


def _resolve(owner: str):
    """A module, or a class inside one, from its dotted name."""
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, _, cls = owner.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.digests: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._pass_start = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for owner_name, attr, name, kind in PLAN:
            owner = _resolve(owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._span(name, raw.__func__))
            elif kind == "count":
                patched = self._count(name, raw)
            else:
                patched = self._span(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _count(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        hook = _HOOKS.get(name)

        @wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name) as parent:
                # A call nested in a span of the same name (check_decomposition
                # recursing, say) is part of that call: it adds self time only.
                outermost = parent is None or self.spans[parent][0] != name
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if outermost:
                        self.calls[name] += 1
            if outermost and hook is not None:
                hook(self, args, result)
            return result
        return spanned

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the parent span's index.

        The wrappers use it, and so does the benchmark around its CLI ops.
        """
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = perf_counter()
        try:
            yield parent
        finally:
            record[1], record[2] = start, perf_counter()
            self._stack.pop()

    # -- per-pass results ------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.calls.clear()
        self.sizes.clear()
        self.digests.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Self time per span name and the counts of the pass just run."""
        first = self._pass_start
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None and parent >= first:
                covered[parent - first] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _), child in zip(spans, covered):
            self_time[name] += (end - start) - child
        out: dict[str, float] = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead_s":
                continue
            if metric in _CALL_METRICS:
                out[metric] = self.calls[_CALL_METRICS[metric]]
            elif metric.endswith("_calls"):
                out[metric] = self.calls[metric[:-len("_calls")]]
            elif unit == "s":
                out[metric] = self_time[metric[:-len("_s")]]
            elif metric == "interval.canonicalize_new_ratio":
                n = self.calls["interval.canonicalize"]
                out[metric] = len(self.digests) / n if n else 0.0
            else:
                out[metric] = self.sizes[metric]
        return out


def _nerve_size(tracer: Tracer, args, result) -> None:
    tracer.sizes["ingest.simplices"] += sum(len(v) for v in result.levels.values())


def _written_bytes(tracer: Tracer, args, result) -> None:
    tracer.sizes["formats.bytes"] += len(result.encode("utf-8"))


def _parsed_bytes(tracer: Tracer, args, result) -> None:
    tracer.sizes["formats.bytes"] += len(args[0].encode("utf-8"))


def _digest(tracer: Tracer, args, result) -> None:
    tracer.digests.add(result[0].digest)


def _entries(tracer: Tracer, args, result) -> None:
    tracer.sizes["registry.entries"] += len(result.entries)


_HOOKS = {
    "ingest.nerve": _nerve_size,
    "formats.write": _written_bytes,
    "formats.parse": _parsed_bytes,
    "interval.canonicalize": _digest,
    "registry.close": _entries,
}

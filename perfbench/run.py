"""Time-to-verdict benchmark of the decomp pipeline, stdlib only.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of
traced passes instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MODULES = ("decomp", "decomp.simplex", "decomp.report", "decomp.presheaf",
           "decomp.axioms", "decomp.labeling", "decomp.ingest", "decomp.formats",
           "decomp.interval", "decomp.registry", "decomp.incidence", "decomp.cli")
FIRST_SETUPS = 5


def import_library() -> None:
    """Import decomp from this checkout's src/, or exit."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        for name in MODULES:
            importlib.import_module(name)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import decomp from {src}: {exc}")
    origin = Path(sys.modules["decomp"].__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: decomp was imported from {origin}, not from {src}")


def timed_setup(workload, seed: int, workdir: str) -> tuple[float, object]:
    """Seconds of one set-up as a fresh process pays it, and its fixture:
    import decomp afresh, then make the workload's inputs.

    The modules in use are put back afterwards, so the passes and the
    tracer keep working on the one set of modules.
    """
    kept = {name: sys.modules.pop(name) for name in MODULES}
    try:
        gc.collect()
        start = perf_counter()
        for name in MODULES:
            importlib.import_module(name)
        fixture = workload.setup(seed, workdir)
        seconds = perf_counter() - start
    finally:
        sys.modules.update(kept)
    return seconds, fixture


def measure(args, workload, tracer) -> dict:
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        # Every set-up and every pass starts from a collected heap, so
        # garbage left by the previous one is not charged to it.  One more
        # set-up follows each pass, so that set-up times sample the whole
        # run and not only its first second.
        setups = []
        for _ in range(FIRST_SETUPS):
            seconds, fixture = timed_setup(workload, args.seed, workdir)
            setups.append(seconds)
        passes, traced = [], []
        start = perf_counter()
        while True:
            gc.collect()
            trace_this = tracer is not None and len(passes) % 2 == 1
            p = workloads.Pass(tracer if trace_this else None)
            if trace_this:
                tracer.begin_pass()
                tracer.install()
            try:
                workload.run_pass(fixture, p, workdir)
            finally:
                if trace_this:
                    tracer.uninstall()
            passes.append(p)
            if len(passes) == 1:
                # Later passes repeat the same work; their peak depends on
                # how the heap fragmented, not on the code under test.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if trace_this:
                traced.append(tracer.pass_metrics())
            setups.append(timed_setup(workload, args.seed, workdir)[0])
            elapsed = perf_counter() - start
            typical = statistics.median(q.wall for q in passes)
            enough = tracer is None or traced
            if enough and elapsed + typical / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "passes": passes, "traced": traced, "peak_kb": peak_kb}


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics.  When two ops of close
    latency swap ranks, or a gap between latencies sits at the rank, it
    moves a little where the plain order statistic would jump.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def op_latencies(passes) -> list[float]:
    """Each op's median latency over the passes of the run, in reference
    units: its seconds over its pass's reference time.

    Taking the percentiles over ops rather than over raw samples keeps the
    rank they land on fixed whether the run held one pass or three.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for o in p.ops:
            samples.setdefault(o.name, []).append(o.seconds / p.reference_s)
    return [statistics.median(v) for v in samples.values()]


def end_to_end(runs: dict) -> dict:
    passes = runs["passes"]
    latencies = op_latencies(passes)
    return {
        "setup_s": (statistics.median(runs["setups"]), "s"),
        "wall_ref": (statistics.median(p.wall / p.reference_s for p in passes), "ref"),
        "op_p50_ref": (quantile(latencies, 0.5), "ref"),
        "op_p90_ref": (quantile(latencies, 0.9), "ref"),
        "peak_rss_mb": (runs["peak_kb"] / 1024, "MB"),
    }


def per_layer(runs: dict) -> dict:
    from tracer import LAYER_METRICS

    traced = runs["traced"]
    untraced_walls = [p.wall for p in runs["passes"][0::2]]
    traced_walls = [p.wall for p in runs["passes"][1::2]]
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            value = statistics.median(t[metric] for t in traced)
        out[metric] = (value, unit)
    return out


def write_spans(args, tracer) -> Path:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "classify", "symmetric", "walkthrough"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    runs = measure(args, workloads.WORKLOADS[args.workload], tracer)
    passes = runs["passes"]
    ops = [o for p in passes for o in p.ops]
    failed = [o for p in passes for o in p.failed]
    for o in failed[:20]:
        print(f"FAILED {o.name}: {o.error}")
    print(f"{args.workload}: seed={args.seed} setups={len(runs['setups'])} "
          f"passes={len(passes)} traced={len(runs['traced'])} ops={len(ops)} "
          f"ops_per_pass={len(passes[0].ops)} fail_ratio={len(failed)}/{len(ops)}")
    print(f"wall_s={statistics.median(p.wall for p in passes):.4g} "
          f"reference_s={statistics.median(p.reference_s for p in passes):.4g} "
          f"(medians over passes)")
    if tracer is None:
        metrics = end_to_end(runs)
    else:
        metrics = per_layer(runs)
        print(f"spans written to {write_spans(args, tracer)}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

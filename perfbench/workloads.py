"""The four workloads: what each sets up and the ops one pass runs.

An op is one public library call or one CLI command.  Each op is timed on
its own and its output is checked against an answer from `oracle`; a wrong
answer or an exception marks the op failed and the pass goes on.  Library
calls go through module attributes at call time, so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from decomp import axioms, cli, formats, incidence, ingest, interval, presheaf, registry

import corpus
import oracle


class Mismatch(AssertionError):
    """An op's output disagrees with the expected answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


REFERENCE_STEPS = 20_000


def reference_work() -> None:
    """A fixed piece of pure-Python work of the library's own kind,
    tuple-keyed dict updates and a sort, timed beside every op.

    On a shared host the speed of the machine moves by a third over
    minutes, and this work slows down with the library's.  Op times divided
    by its time stay put where the seconds do not (see README, Steadiness).
    """
    counts: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_STEPS):
        key = (i % 977, i % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str | None = None


@dataclass
class Pass:
    """Runs the ops of one pass, timing and checking each."""

    tracer: object | None = None
    ops: list[OpResult] = field(default_factory=list)
    outcomes: list[tuple[str, object]] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)

    def op(self, name, call, check=None, raises=None):
        """Time call(); check(result) returns a renaming-invariant outcome.

        The reference work is timed just before, so the pass samples the
        machine's speed as often as it runs an op.
        """
        start = perf_counter()
        reference_work()
        self.reference.append(perf_counter() - start)
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, never fatal
            seconds = perf_counter() - start
            if raises is not None and isinstance(exc, raises):
                self._record(name, seconds, None, type(exc).__name__)
                return exc
            self._record(name, seconds, f"raised {type(exc).__name__}: {exc}")
            return None
        seconds = perf_counter() - start
        if raises is not None:
            self._record(name, seconds, f"expected {raises.__name__}")
            return result
        try:
            outcome = check(result) if check else None
        except Exception as exc:
            self._record(name, seconds, f"{type(exc).__name__}: {exc}")
            return result
        self._record(name, seconds, None, outcome)
        return result

    def _record(self, name, seconds, error, outcome=None):
        self.ops.append(OpResult(name, seconds, error))
        self.outcomes.append((name, "failed" if error else outcome))

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def reference_s(self) -> float:
        """The machine's speed during the pass: median reference time."""
        return statistics.median(self.reference)

    @property
    def failed(self) -> list[OpResult]:
        return [o for o in self.ops if o.error]


# ---------------------------------------------------------------------------
# shared checks


def verdict(status: str):
    def check(rep):
        expect(rep.status == status, f"verdict {rep.status}, expected {status}")
        return rep.status
    return check


def check_levels(sizes: dict[int, int]):
    def check(X):
        got = {k: len(v) for k, v in X.levels.items()}
        expect(got == sizes, f"level sizes {got}, expected {sizes}")
        return tuple(sorted(got.items()))
    return check


def check_roundtrip(X):
    def check(Y):
        expect(Y.cap == X.cap and Y.stable_from == X.stable_from, "cap changed")
        expect(all(sorted(Y.levels[k]) == sorted(X.levels[k]) for k in X.levels)
               and Y.levels.keys() == X.levels.keys(), "levels changed")
        expect(Y.faces == X.faces and Y.degens == X.degens, "tables changed")
        return Y.cap
    return check


def check_written(cap: int):
    def check(text):
        expect(text.startswith(f"SSET v1\ncap {cap}\n"), "bad SSET header")
        return cap
    return check


def _mu_outcome(mu: dict[str, Fraction], want: dict[str, Fraction], key) -> tuple:
    expect(set(mu) == set(want), "Mobius vector has the wrong arrows")
    bad = [a for a in want if mu[a] != want[a]]
    expect(not bad, f"Mobius value wrong on {bad[:3]}")
    return tuple(sorted((key[a], str(v)) for a, v in mu.items()))


def check_partition(mapping: dict[str, str], shapes: dict[str, tuple]) -> dict:
    """Digests must split the arrows exactly as their shapes do."""
    expect(set(mapping) == set(shapes), "classified the wrong arrows")
    by_digest: dict[str, set] = {}
    for a, d in mapping.items():
        by_digest.setdefault(d, set()).add(shapes[a])
    expect(all(len(s) == 1 for s in by_digest.values()),
           "one digest covers two interval shapes")
    expect(len(by_digest) == len(set(shapes.values())),
           "one interval shape got two digests")
    return {d: next(iter(s)) for d, s in by_digest.items()}


# ---------------------------------------------------------------------------
# objects of the corpus


@dataclass
class PosetObject:
    box: corpus.BoxPoset
    cap: int
    segal = "PASS"  # the nerve of a category is Segal

    @property
    def label(self):
        return self.box.label

    @property
    def spec(self):
        return self.box.spec

    def level_sizes(self) -> dict[int, int]:
        return {k: oracle.box_level_size(self.box.bounds, k) for k in range(self.cap + 1)}

    def arrows(self) -> dict[str, tuple]:
        """Arrow id -> (abstract key, interval shape)."""
        return {a: ((s, t), oracle.shape(s, t)) for a, s, t in self.box.arrows()}

    def comult(self) -> dict[str, Counter]:
        box = self.box
        out = {}
        for a, s, t in box.arrows():
            out[a] = Counter({(box.arrow(s, c), box.arrow(c, t)): 1
                              for c in box.name
                              if all(x <= y <= z for x, y, z in zip(s, c, t))})
        return out

    def identities(self) -> set[str]:
        return {self.box.arrow(v, v) for v in self.box.name}

    def top_arrow(self) -> str:
        return self.box.arrow(self.box.bottom, self.box.top)


@dataclass
class AdditionObject:
    mon: corpus.TruncatedAddition
    cap: int
    # The spine bound + bound has no filler once sums above bound are cut:
    # a decomposition space that is not Segal.
    segal = "FAIL"

    @property
    def label(self):
        return self.mon.label

    @property
    def spec(self):
        return self.mon.spec

    def level_sizes(self) -> dict[int, int]:
        return {k: oracle.addition_level_size(self.mon.bound, k)
                for k in range(self.cap + 1)}

    def arrows(self) -> dict[str, tuple]:
        return {name: (n, oracle.shape(0, n)) for n, name in self.mon.name.items()}

    def comult(self) -> dict[str, Counter]:
        name = self.mon.name
        return {name[n]: Counter({(name[i], name[n - i]): 1 for i in range(n + 1)})
                for n in name}

    def identities(self) -> set[str]:
        return {self.mon.name[0]}

    def top_arrow(self) -> str:
        return self.mon.name[self.mon.bound]


def certify_ops(p: Pass, obj) -> None:
    """nerve -> write/parse -> validate -> Segal -> exactness -> Mobius ->
    inversion -> comultiplication, on an object known to pass."""
    tag = obj.label
    arrows = obj.arrows()
    key = {a: k for a, (k, _) in arrows.items()}
    want_mu = {a: oracle.mobius_value(s) for a, (_, s) in arrows.items()}
    X = p.op(f"{tag}/nerve", lambda: ingest.nerve(obj.spec, obj.cap),
             check_levels(obj.level_sizes()))
    text = p.op(f"{tag}/write_sset", lambda: formats.write_sset(X),
                check_written(obj.cap))
    Y = p.op(f"{tag}/parse_sset", lambda: formats.parse_sset(text), check_roundtrip(X))
    p.op(f"{tag}/validate", lambda: presheaf.validate(Y), verdict("PASS"))
    p.op(f"{tag}/check_segal", lambda: axioms.check_segal(Y), verdict(obj.segal))
    p.op(f"{tag}/check_decomposition",
         lambda: axioms.check_decomposition(Y, "both"), verdict("PASS"))
    p.op(f"{tag}/check_mobius", lambda: axioms.check_mobius(Y), verdict("PASS"))
    p.op(f"{tag}/mobius", lambda: incidence.mobius(Y),
         lambda mu: _mu_outcome({a: mu[a] for a in mu.basis}, want_mu, key))
    p.op(f"{tag}/verify_inversion", lambda: incidence.verify_inversion(Y),
         verdict("PASS"))

    def check_comult(table):
        expect(dict(table.pairs) == obj.comult(), "comultiplication differs")
        ids = obj.identities()
        expect(table.counit == {a: int(a in ids) for a in arrows}, "counit differs")
        return len(table.pairs)
    p.op(f"{tag}/comult", lambda: incidence.comult(Y), check_comult)


def planted_ops(p: Pass, obj: PosetObject) -> None:
    """The chain 0 < 1 < 2 < 3 with the triangle 0 < 1 < 3 removed.

    Its comultiplication is not coassociative: (D x id)D(0<3) holds the
    term (0<1) x (1<2) x (2<3) and (id x D)D(0<3) does not, because 1 is no
    longer a factorisation point of 0 < 3.  A decomposition space always
    has a coassociative comultiplication, so exactness must FAIL; the spine
    0 < 1 < 3 has no filler, so Segal must FAIL as well.
    """
    tag = obj.label
    name = obj.box.name
    pattern = [name[(0,)], name[(1,)], name[(3,)]]
    X = p.op(f"{tag}/nerve", lambda: ingest.nerve(obj.spec, obj.cap),
             check_levels(obj.level_sizes()))
    P = corpus.plant_missing_triangle(X, pattern) if X is not None else None
    text = p.op(f"{tag}/write_sset", lambda: formats.write_sset(P),
                check_written(obj.cap))
    Y = p.op(f"{tag}/parse_sset", lambda: formats.parse_sset(text), check_roundtrip(P))
    p.op(f"{tag}/validate", lambda: presheaf.validate(Y), verdict("PASS"))
    p.op(f"{tag}/check_segal", lambda: axioms.check_segal(Y), verdict("FAIL"))
    p.op(f"{tag}/check_decomposition",
         lambda: axioms.check_decomposition(Y, "both"), verdict("FAIL"))
    p.op(f"{tag}/comult", lambda: incidence.comult(Y), raises=incidence.NotCertified)


# ---------------------------------------------------------------------------
# workloads


def _scratch(workdir: str) -> str:
    return tempfile.mkdtemp(prefix="pass-", dir=workdir)


class Certify:
    """Ingest, formats, presheaf, axioms and incidence on big levels;
    interval, labeling and registry never run."""

    def setup(self, seed: int, workdir: str):
        return [
            PosetObject(corpus.box_poset("chain5", (5,), seed), 8),
            AdditionObject(corpus.truncated_addition("trunc5", 5, seed), 8),
            PosetObject(corpus.box_poset("d12", (2, 1), seed), 6),
            PosetObject(corpus.box_poset("planted", (3,), seed), 6),
        ]

    def run_pass(self, fixture, p: Pass, workdir: str) -> None:
        *valid, planted = fixture
        for obj in valid:
            certify_ops(p, obj)
        planted_ops(p, planted)


class Classify:
    """Cutting every arrow of every extension and canonicalising mostly
    rigid intervals: interval cutting and the registry dominate."""

    def setup(self, seed: int, workdir: str):
        objs = [
            PosetObject(corpus.box_poset("chain6", (6,), seed), 9),
            AdditionObject(corpus.truncated_addition("trunc6", 6, seed), 9),
            PosetObject(corpus.box_poset("d60", (2, 1, 1), seed), 7),
        ]
        return [(obj, ingest.nerve(obj.spec, obj.cap)) for obj in objs]

    def run_pass(self, fixture, p: Pass, workdir: str) -> None:
        for obj, X in fixture:
            self._one(p, obj, X, workdir)

    def _one(self, p: Pass, obj, X, workdir: str) -> None:
        tag = obj.label
        arrows = obj.arrows()
        shapes = {a: s for a, (_, s) in arrows.items()}
        top_shape = shapes[obj.top_arrow()]
        want_shapes = oracle.sub_shapes(top_shape)

        def check_cut(result):
            iv, _embed = result
            expect(len(iv.data.levels[0]) == oracle.elements(top_shape),
                   "top interval has the wrong elements")
            return len(iv.data.levels[0])
        cut = p.op(f"{tag}/cut", lambda: interval.factorisation_interval(X, obj.top_arrow()),
                   check_cut)
        reg = registry.Registry()

        def check_insert(digest):
            expect(list(reg.entries) == [digest], "insert did not store one entry")
            return digest
        p.op(f"{tag}/insert", lambda: reg.insert(cut[0]), check_insert)

        def check_close(r):
            sizes = sorted(len(e.interval.canonical.data.levels[0])
                           for e in r.entries.values())
            want = sorted(oracle.elements(s) for s in want_shapes)
            expect(sizes == want, f"closure holds intervals of sizes {sizes}")
            return tuple(sorted(r.entries))
        p.op(f"{tag}/close", lambda: reg.close(), check_close)
        scratch = _scratch(workdir)
        try:
            def check_save(_):
                with open(os.path.join(scratch, "index.tsv"), encoding="utf-8") as fh:
                    rows = [line.split("\t")[0] for line in fh.read().splitlines()]
                expect(sorted(rows) == sorted(reg.entries), "index.tsv rows differ")
                expect(all(os.path.exists(os.path.join(scratch, f"{d}.xiset"))
                           for d in rows), "entry file missing")
                return len(rows)
            p.op(f"{tag}/save", lambda: reg.save(scratch), check_save)

            def check_load(r):
                expect(sorted(r.entries) == sorted(reg.entries), "loaded other digests")
                return len(r.entries)
            loaded = p.op(f"{tag}/load", lambda: registry.Registry.load(scratch), check_load)
        finally:
            shutil.rmtree(scratch)
        shape_of: dict[str, tuple] = {}

        def check_classify(result):
            mapping, rep = result
            expect(rep.status == "PASS", f"classify verdict {rep.status}")
            shape_of.update(check_partition(mapping, shapes))
            return tuple(sorted(shape_of.items()))
        p.op(f"{tag}/classify", lambda: incidence.classify(X, loaded), check_classify)

        def check_universal(result):
            mu, rep = result
            expect(rep.status == "PASS", f"universal_mobius verdict {rep.status}")
            expect(set(mu.basis) == set(shape_of), "universal Mobius basis differs")
            bad = [d for d, s in shape_of.items() if mu[d] != oracle.mobius_value(s)]
            expect(not bad, f"universal Mobius wrong on {len(bad)} classes")
            return tuple(sorted((s, str(mu[d])) for d, s in shape_of.items()))
        p.op(f"{tag}/universal_mobius", lambda: incidence.universal_mobius(loaded),
             check_universal)

        def check_fragment(frag):
            want = {k: sum(oracle.subdivisions(s, k) for s in want_shapes)
                    for k in range(4)}
            got = {k: len(frag.levels[k]) for k in range(4)}
            expect(got == want, f"fragment levels {got}, expected {want}")
            return tuple(sorted(got.items()))
        frag = p.op(f"{tag}/build_fragment", lambda: registry.build_fragment(loaded, top=3),
                    check_fragment)

        def check_square(rep):
            expect(rep.status == "PASS", f"fragment square verdict {rep.status}")
            counts = rep.data["counts"]
            bad = [d for d, s in shape_of.items()
                   if counts[d] != {k: oracle.subdivisions(s, k) for k in range(4)}]
            expect(not bad, f"subdivision counts wrong on {len(bad)} classes")
            return rep.status
        p.op(f"{tag}/fragment_square_report",
             lambda: registry.fragment_square_report(frag), check_square)


class Symmetric:
    """The Boolean interval [1]^4 with 24 automorphisms: canonical labelling
    backtracks through all of them."""

    def setup(self, seed: int, workdir: str):
        obj = PosetObject(corpus.box_poset("B4", (1, 1, 1, 1), seed), 7)
        return obj, ingest.nerve(obj.spec)

    def run_pass(self, fixture, p: Pass, workdir: str) -> None:
        obj, X = fixture
        top_shape = (1, 1, 1, 1)
        def check_cut(result):
            iv, _embed = result
            expect(len(iv.data.levels[0]) == oracle.elements(top_shape),
                   "top interval has the wrong elements")
            return len(iv.data.levels[0])
        cut = p.op("B4/cut", lambda: interval.factorisation_interval(X, obj.top_arrow()),
                   check_cut)
        cls = p.op("B4/canonicalize", lambda: interval.canonicalize(cut[0]),
                   lambda c: c.digest)
        reg = registry.Registry()

        def check_insert(digest):
            expect(digest == cls.digest and list(reg.entries) == [digest],
                   "insert stored another digest")
            return digest
        p.op("B4/insert", lambda: reg.insert(cls), check_insert)

        def check_close(r):
            sizes = sorted(len(e.interval.canonical.data.levels[0])
                           for e in r.entries.values())
            want = sorted(oracle.elements(s) for s in oracle.sub_shapes(top_shape))
            expect(sizes == want, f"closure holds intervals of sizes {sizes}")
            return tuple(sorted(r.entries))
        p.op("B4/close", lambda: reg.close(), check_close)


class Walkthrough:
    """The README CLI sequence on a seeded B3 POSET file, in process."""

    def setup(self, seed: int, workdir: str):
        obj = PosetObject(corpus.box_poset("B3", (1, 1, 1), seed), 6)
        path = os.path.join(workdir, "B3.poset")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(obj.box.poset_text())
        return obj, path

    def run_pass(self, fixture, p: Pass, workdir: str) -> None:
        obj, poset_path = fixture
        cap = obj.cap
        scratch = _scratch(workdir)
        try:
            self._commands(p, obj, poset_path, cap, scratch)
        finally:
            shutil.rmtree(scratch)

    def _commands(self, p: Pass, obj, poset_path, cap, scratch) -> None:
        arrows = obj.arrows()
        shapes = {a: s for a, (_, s) in arrows.items()}
        key = {a: k for a, (k, _) in arrows.items()}
        top = obj.top_arrow()
        sset = os.path.join(scratch, "B3.sset")
        dec = os.path.join(scratch, "B3dec.sset")
        top_iv = os.path.join(scratch, "top.xiset")
        reg = os.path.join(scratch, "reg")

        def run(command, argv, check):
            def call():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if p.tracer is None:
                        code = cli.main(argv)
                    else:
                        with p.tracer.span(f"cli.{command}"):
                            code = cli.main(argv)
                return code, out.getvalue().splitlines()

            def checked(result):
                code, lines = result
                expect(code == 0, f"exit code {code}")
                return check(lines)
            return p.op(f"cli/{command}", call, checked)

        def exactly(*want):
            def check(lines):
                expect(lines == list(want), f"output {lines[:2]}")
                return lines[0].split()[0] if lines else None
            return check

        def all_pass(lines):
            expect(lines and all(line.startswith("PASS ") for line in lines),
                   f"output {lines[:2]}")
            return len(lines)

        run("nerve", ["nerve", poset_path, "-o", sset], exactly(f"PASS nerve degree={cap}"))
        run("check_decomp", ["check", "decomp", sset], all_pass)
        run("check_segal", ["check", "segal", sset],
            exactly(f"PASS check_segal degree={cap}"))
        run("check_mobius", ["check", "mobius", sset],
            exactly(f"PASS check_mobius degree={cap}"))

        def check_mobius_tsv(lines):
            mu = {}
            for line in lines:
                a, _, q = line.partition("\t")
                num, _, den = q.partition("/")
                mu[a] = Fraction(int(num), int(den))
            return _mu_outcome(mu, {a: oracle.mobius_value(s) for a, s in shapes.items()},
                               key)
        run("mobius", ["mobius", sset], check_mobius_tsv)

        def check_table(lines):
            want = sorted(f"{a}\t{l}\t{r}\t{m}" for a, ctr in obj.comult().items()
                          for (l, r), m in ctr.items())
            expect(sorted(lines) == want, "coalgebra table differs")
            return len(lines)
        run("coalg_table", ["coalg-table", sset], check_table)
        run("dec_bot", ["dec", "bot", sset, "-o", dec],
            exactly(f"PASS dec_bot degree={cap - 1}"))
        run("interval", ["interval", sset, "--arrow", top, "-o", top_iv],
            exactly(f"PASS interval degree={cap - 2} witness={top}"))
        run("check_flanked", ["check", "flanked", top_iv], all_pass)

        def check_add(lines):
            expect(len(lines) == 1 and len(lines[0].split("\t")) == 2, "add output")
            return lines[0].split("\t")[0]
        run("registry_add", ["registry", "add", reg, top_iv], check_add)
        sub = oracle.sub_shapes(shapes[top])
        run("registry_close", ["registry", "close", reg],
            exactly(f"PASS registry-close note=entries:1->{len(sub)}"))

        def check_list(lines):
            rows = [line.split("\t") for line in lines]
            expect(len(rows) == len(sub) and all(len(r) == 4 and r[2] == "1" for r in rows),
                   "registry list rows")
            return tuple(sorted(r[0] for r in rows))
        run("registry_list", ["registry", "list", reg], check_list)
        mu_of: dict[str, Fraction] = {}

        def check_mu(lines):
            *rows, verdict_line = lines
            expect(verdict_line.startswith("PASS "), f"verdict {verdict_line}")
            for row in rows:
                digest, _name, q = row.split("\t")
                num, _, den = q.partition("/")
                mu_of[digest] = Fraction(int(num), int(den))
            want = sorted(oracle.mobius_value(s) for s in sub)
            expect(sorted(mu_of.values()) == want, "universal Mobius values differ")
            return tuple(sorted(mu_of.items()))
        run("registry_mu", ["registry", "mu", reg], check_mu)

        def check_classify(lines):
            *rows, verdict_line = lines
            expect(verdict_line.startswith("PASS "), f"verdict {verdict_line}")
            mapping = dict(row.split("\t") for row in rows)
            shape_of = check_partition(mapping, shapes)
            bad = [d for d, s in shape_of.items()
                   if mu_of.get(d) != oracle.mobius_value(s)]
            expect(not bad, "classified digests carry the wrong Mobius values")
            return tuple(sorted(shape_of.items()))
        run("classify", ["classify", sset, "--registry", reg], check_classify)


WORKLOADS = {
    "certify": Certify(),
    "classify": Classify(),
    "symmetric": Symmetric(),
    "walkthrough": Walkthrough(),
}

"""Exact-rational incidence coalgebras and Mobius inversion.

Comultiplication tables store multisets of arrow pairs read off the
degree-2 fibers; convolution, the nondegenerate-simplex counting vectors,
and their alternating sum all stay in exact rational arithmetic; inversion is
checked on the mu that `mobius` returns.  The classifying map sends an
arrow to the content digest of its interval, as `Registry.arrow_classes`
transports it, and is checked to be a homomorphism into the registry
coalgebra.  The coalgebra is read off each class's objects x and its arrow
table: [bottom, x] (x) [x, top].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .axioms import check_decomposition, check_mobius, check_segal
from .axioms import check_map_class  # noqa: F401 -- perfbench/tracer.py wraps it here
from .interval import certify_mobius_interval, longest_edge
from .interval import factorisation_interval  # noqa: F401 -- perfbench/tracer.py wraps it here
from .presheaf import FinSSet, fibres, validate_sset
from .registry import Registry, RegistryError
from .registry import build_fragment  # noqa: F401 -- perfbench/tracer.py wraps it here
from .report import Report


class NotCertified(ValueError):
    pass


@dataclass
class QVec:
    """A finitely supported exact-rational vector over a fixed basis."""

    basis: frozenset[str]
    coeffs: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, v in self.coeffs.items():
            if k not in self.basis:
                raise ValueError(f"coefficient on {k!r} outside the basis")
            v = Fraction(v)
            if v:
                clean[k] = v
        self.coeffs = clean

    def __getitem__(self, k: str) -> Fraction:
        return self.coeffs.get(k, Fraction(0))


@dataclass
class CoalgebraTable:
    """Per-arrow comultiplication multisets and the counit indicator."""

    basis: frozenset[str]
    pairs: dict[str, Counter]
    counit: dict[str, int]


def comult(X: FinSSet, check: bool = True) -> CoalgebraTable:
    """Comultiplication from the degree-2 long-edge fibers; check certifies X
    by its Segal verdict (GKT I) at cap 3 or more, else by direct exactness."""
    if X.cap < 2:
        raise NotCertified("comultiplication needs cap >= 2")
    if check and (X.cap < 3 or not (validate_sset(X).ok and check_segal(X).ok)):
        rep = check_decomposition(X, "direct")
        if not rep.ok:
            raise NotCertified("input fails the exactness axiom:\n" + str(rep))
    d, arrows = X.faces.index, X.levels[1]
    pairs: dict[str, Counter] = {a: Counter() for a in arrows}
    for a, left, right in zip(d[(2, 1)], d[(2, 2)], d[(2, 0)]):
        pairs[arrows[a]][(arrows[left], arrows[right])] += 1
    degenerate = set(X.degens.index[(0, 0)])
    counit = {a: int(n in degenerate) for n, a in enumerate(arrows)}
    return CoalgebraTable(frozenset(arrows), pairs, counit)


def registry_comult(reg: Registry) -> CoalgebraTable:
    """Comultiplication per registered class, read off its objects and its
    arrow table.

    The table's pairs map a digest to the multiset, over the objects x, of
    the classes of the arrows bottom -> x and x -> top, each unique as the
    bottom is initial and the top terminal; the counit is 1 exactly on the
    class with one object.
    """
    pairs: dict[str, Counter] = {}
    counit: dict[str, int] = {}
    for digest, entry in reg.entries.items():
        table = reg.arrow_table(digest)
        missing = sorted(set(table.values()).difference(reg.entries))
        if missing:
            raise RegistryError(f"registry is not closed: missing {missing[0][:12]}")
        data = entry.interval.canonical.data
        d0, d1, arrows = data.faces.index[(1, 0)], data.faces.index[(1, 1)], data.levels[1]
        top = arrows.index(longest_edge(data))
        lower = {d0[f]: table[a] for f, a in enumerate(arrows) if d1[f] == d1[top]}
        upper = {d1[f]: table[a] for f, a in enumerate(arrows) if d0[f] == d0[top]}
        pairs[digest] = Counter((lower[x], upper[x]) for x in range(len(data.levels[0])))
        counit[digest] = int(len(data.levels[0]) == 1)
    return CoalgebraTable(frozenset(reg.entries), pairs, counit)


def convolve(table: CoalgebraTable, f: QVec, g: QVec) -> QVec:
    """(f*g)(a) = sum over the degree-2 fiber of f(left) g(right)."""
    if f.basis != table.basis or g.basis != table.basis:
        raise ValueError("basis mismatch")
    out: dict[str, Fraction] = {}
    for a, ctr in table.pairs.items():
        total = Fraction(0)
        for (l, r), mult in ctr.items():
            total += mult * f[l] * g[r]
        if total:
            out[a] = total
    return QVec(table.basis, out)


def zeta(table: CoalgebraTable) -> QVec:
    return QVec(table.basis, {a: Fraction(1) for a in table.basis})


def counit_vec(table: CoalgebraTable) -> QVec:
    return QVec(table.basis, {a: Fraction(v) for a, v in table.counit.items()})


def mobius(X: FinSSet) -> QVec:
    """Alternating sum of the nondegenerate counting vectors.

    Only computed under a certified tightness bound; the sum is finite and
    exact, and refuses to run otherwise rather than answer approximately.
    """
    cert = check_mobius(X)
    if not cert.ok:
        raise NotCertified("Mobius conditions not certified:\n" + str(cert))
    values = dict.fromkeys(X.levels[1], 0)
    for k in range(X.stable_from + 1):
        for a, over in fibres(X, k, True).items():
            values[a] += (-1) ** k * len(over)
    return QVec(frozenset(X.levels[1]), values)


def _inversion_faults(table: CoalgebraTable, mu: QVec) -> list[tuple[str, list[str]]]:
    """Each side of zeta * mu = counit = mu * zeta that fails, with the
    sorted arrows where it differs from the counit."""
    z, eps = zeta(table), counit_vec(table)
    faults = []
    for side, got in (("zeta*mu", convolve(table, z, mu)),
                      ("mu*zeta", convolve(table, mu, z))):
        bad = sorted(a for a in table.basis if got[a] != eps[a])
        if bad:
            faults.append((side, bad))
    return faults


def verify_inversion(X: FinSSet) -> Report:
    """zeta * mu = counit = mu * zeta for the mu of `mobius`, under one
    certificate."""
    rep = Report("verify_inversion")
    cert = check_mobius(X)
    if not cert.ok:
        rep.absorb(cert)
        return rep
    for side, bad in _inversion_faults(comult(X, check=False), mobius(X)):
        rep.fail(witness=bad[:3], note=f"{side}-differs-from-counit")
    rep.verified_upto = X.cap
    return rep


# ---------------------------------------------------------------------------
# functoriality


def _homomorphism(rep: Report, X: FinSSet, m: dict, target: CoalgebraTable,
                  note: str) -> None:
    """Fail rep at each arrow a of X whose comultiplication, pushed through
    the arrow map m, is not target's at m[a] (with note), or whose counit is
    not target's at m[a]."""
    table = comult(X, check=False)
    for a in X.levels[1]:
        pushed: Counter = Counter()
        for (l, r), mult in table.pairs[a].items():
            pushed[(m[l], m[r])] += mult
        if pushed != target.pairs[m[a]]:
            rep.fail(degree=2, witness=(a,), note=note)
        if table.counit[a] != target.counit[m[a]]:
            rep.fail(degree=1, witness=(a,), note="counit-not-preserved")
    rep.verified_upto = X.cap


def classify(X: FinSSet, reg: Registry) -> tuple[dict[str, str], Report]:
    """The classifying culf map X -> U, arrow -> digest of its interval, read
    off the tables of the maximal arrows' classes and checked against the
    registry comultiplication; the registry must be closed under subintervals."""
    rep = Report("classify")
    cert = check_mobius(X)
    if not cert.ok:
        raise NotCertified("Mobius conditions not certified:\n" + str(cert))
    mapping = reg.arrow_classes(X)
    for a in X.levels[1]:
        if mapping[a] not in reg.entries:
            raise RegistryError(
                f"registry is not closed: arrow {a!r} classifies to "
                f"{mapping[a][:12]} which is missing")
    _homomorphism(rep, X, mapping, registry_comult(reg), "not-a-coalgebra-homomorphism")
    return mapping, rep


def universal_mobius(reg: Registry) -> tuple[QVec, Report]:
    """Per-class Mobius values, the alternating sums of the certified
    longest-edge profiles, with the registry-level inversion check."""
    rep = Report("universal_mobius")
    values: dict[str, int] = {}
    for digest, entry in reg.entries.items():
        cert = certify_mobius_interval(entry.interval)
        if not cert.ok:
            raise NotCertified(f"stored entry {digest[:12]} is not certified Mobius:\n{cert}")
        profile = cert.data["phi_profile"]
        values[digest] = sum(profile[0::2]) - sum(profile[1::2])
    mu = QVec(frozenset(reg.entries), values)
    if _inversion_faults(registry_comult(reg), mu):
        rep.fail(note="registry-inversion-fails")
    rep.verified_upto = 2
    return mu, rep

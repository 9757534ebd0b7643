"""Differential tests: the whole-level and counting fast paths against the
element-by-element reference implementations in `oracles`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from decomp.ingest import PosetSpec, nerve_poset
from decomp.presheaf import pullback_failure, validate_sset
from oracles import pullback_failure_by_enumeration, validate_sset_by_simplex

SETTINGS = settings(max_examples=300, deadline=None, database=None)


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except (KeyError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))


@st.composite
def squares(draw):
    """A square p: P -> A, q: P -> B over f: A -> C, g: B -> C.

    It starts as the true fibre product of A and B, then takes one to three
    mutations: none, drop an element (a missing pair), duplicate one (a
    non-injective comparison), add a pair that lands outside A or B, add a
    pair from different fibres (a square that does not commute), or add an
    element p or q does not map.  A "swap-" mutation drops an element before
    adding, so that |P| still equals |A x_C B|.  The result is shuffled.
    """
    corners = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    A = [f"a{i}" for i in range(draw(st.integers(0, 4)))]
    B = [f"b{i}" for i in range(draw(st.integers(0, 4)))]
    A_out = [f"a{i}!" for i in range(draw(st.integers(0, 2)))]
    B_out = [f"b{i}!" for i in range(draw(st.integers(0, 2)))]
    f = {a: draw(st.sampled_from(corners)) for a in A + A_out}
    g = {b: draw(st.sampled_from(corners)) for b in B + B_out}
    pairs = [(a, b) for a in A for b in B if f[a] == g[b]]
    kinds = ["drop", "duplicate", "outside", "noncommuting", "unmapped"]
    kinds += [f"swap-{kind}" for kind in kinds[1:]] + ["none"] * 3
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind.startswith("swap-") and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
            kind = kind[len("swap-"):]
        if kind == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif kind == "duplicate" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind == "outside":
            wide = [(a, b) for a in A + A_out for b in B + B_out
                    if f[a] == g[b] and (a in A_out or b in B_out)]
            if wide:
                pairs.append(draw(st.sampled_from(wide)))
        elif kind == "noncommuting":
            crossed = [(a, b) for a in A for b in B if f[a] != g[b]]
            if crossed:
                pairs.append(draw(st.sampled_from(crossed)))
        elif kind == "unmapped":
            pairs.append((draw(st.sampled_from(["a?", *A])), "b?"))
    pairs = draw(st.permutations(pairs))
    P = [f"x{n}" for n in range(len(pairs))]
    p = {x: a for x, (a, _) in zip(P, pairs)}
    q = {x: b for x, (_, b) in zip(P, pairs) if b != "b?"}
    return P, A, B, p, q, f, g


@SETTINGS
@given(squares())
def test_pullback_failure_matches_enumeration(square):
    assert (outcome(pullback_failure, *square)
            == outcome(pullback_failure_by_enumeration, *square))


def test_pullback_reference_reports_each_kind():
    """The square generator reaches every verdict the reference can give."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(squares())
    def collect(square):
        got = outcome(pullback_failure_by_enumeration, *square)
        seen.add(got[1] if got[0] == "raised" or got[1] is None
                 else got[1].split(":")[0])

    collect()
    assert seen == {None, "comparison-not-injective", "missing-fiber-pair",
                    "ValueError", "KeyError"}


@st.composite
def rewired_nerves(draw):
    """A small poset nerve with one structure-map entry changed.

    The new target is another simplex of the right level or a name outside
    it, the entry is deleted, or its source is renamed to a name outside the
    level; the stabilization claim is sometimes lowered so that it fails
    too.
    """
    n = draw(st.integers(1, 4))
    names = [f"e{i}" for i in range(n)]
    relations = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda ij: ij[0] < ij[1]), max_size=5))
    spec = PosetSpec.from_pairs(names, [(names[i], names[j]) for i, j in relations])
    X = nerve_poset(spec, draw(st.integers(2, 4)))
    if draw(st.booleans()):
        X.stable_from = draw(st.integers(0, X.cap))
    if draw(st.booleans()):
        tables, shift = X.faces, -1
    else:
        tables, shift = X.degens, 1
    key = draw(st.sampled_from(sorted(tables)))
    table = dict(tables[key])
    x = draw(st.sampled_from(sorted(table)))
    how = draw(st.sampled_from(["retarget", "retarget", "outside", "delete", "rename"]))
    if how == "retarget":
        table[x] = draw(st.sampled_from(X.levels[key[0] + shift]))
    elif how == "outside":
        table[x] = "nowhere"
    elif how == "delete":
        del table[x]
    else:
        table["nowhere"] = table.pop(x)
    tables[key] = table
    return X


@SETTINGS
@given(rewired_nerves())
def test_validate_sset_matches_per_simplex_check(X):
    assert validate_sset(X).lines() == validate_sset_by_simplex(X).lines()

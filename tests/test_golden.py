"""Pinned outputs of the interval-site layout: canonical digests, generator
names and order, and the agreement of the boundary-index tables with the
simplicial actions they stand for."""

from hypothesis import given, settings
from hypothesis import strategies as st

from decomp.formats import parse_xiset, write_xiset
from decomp.ingest import PosetSpec, nerve, nerve_poset
from decomp.interval import canonicalize, factorisation_interval, labelling_system
from decomp.presheaf import sset_action, u_star
from decomp.registry import Registry
from conftest import boolean_poset, divisor_poset
from oracles import all_xi_maps

SEP = "≤"
D6_DIGEST = "f545f5367cf6a843ade3bb056359fa0405590fd2264f1864185137ee2600faa6"
B4_DIGEST = "f1bcc0d3acb3c2a39224f007696fefd02c5d6288817c2cfd022455a550179fe0"


def test_d6_interval_digest():
    X = nerve(divisor_poset(6))
    iv, _ = factorisation_interval(X, SEP.join(["1", "6"]))
    assert canonicalize(iv).digest == D6_DIGEST


def test_b4_interval_digest():
    """[1]^4 has 24 automorphisms: the labeling search backtracks through
    every branch of its tree."""
    X = nerve(boolean_poset(4))
    iv, _ = factorisation_interval(X, SEP.join(["o", "abcd"]))
    assert canonicalize(iv).digest == B4_DIGEST


def test_b4_top_class_is_its_2_truncation():
    """A count, not a time: B4's top class is stored as its arrow category,
    at cap 2 with no stable degree and at most 354 elements."""
    iv, _ = factorisation_interval(nerve(boolean_poset(4)), SEP.join(["o", "abcd"]))
    data = canonicalize(iv).canonical.data
    assert data.cap == 2 and data.stable_from is None
    assert sum(len(ids) for ids in data.levels.values()) <= 354


def test_b3_registry_closure_digests():
    X = nerve(boolean_poset(3))
    iv, _ = factorisation_interval(X, SEP.join(["o", "abc"]))
    reg = Registry()
    reg.insert(iv)
    reg.close()
    assert sorted(reg.entries) == [
        "575ef25a2413ad620d8b9ec2ae51d160a93c637092d216346e574f8fb5509d57",
        "a24da4aa746ba8159d6a1c9939cc628fe4169dc00cd374f425149d193ef34cb5",
        "d34c284e64d2a122e32227080e11876b06722e24896538777a7ab16d5a6ecb8b",
        D6_DIGEST,
    ]


def test_xi_generator_names_and_order():
    A = u_star(nerve_poset(divisor_poset(6), 4))
    assert A.cap == 2
    assert [name for name, *_ in labelling_system(A).maps] == (
        "d[1,0] d[1,1] d[2,0] d[2,1] d[2,2] dnew s[0,0] s[1,0] s[1,1] "
        "sbot[-1] stop[-1] sbot[0] stop[0] sbot[1] stop[1]").split()


@st.composite
def poset_specs(draw):
    """(spec, cap) for a poset on at most four elements."""
    n = draw(st.integers(1, 4))
    names = [f"e{i}" for i in range(n)]
    relations = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda ij: ij[0] < ij[1]), max_size=5))
    spec = PosetSpec.from_pairs(names, [(names[i], names[j]) for i, j in relations])
    return spec, draw(st.integers(2, 5))


def poset_nerves():
    return poset_specs().map(lambda spec_cap: nerve_poset(*spec_cap))


@settings(max_examples=60, deadline=None, database=None)
@given(poset_nerves())
def test_boundary_tables_act_as_their_site_maps(X):
    """Every generic map acts on u*X as it does on X, and XISET text
    round-trips both tables."""
    A = u_star(X)
    for m in range(-1, A.cap + 1):
        for n in range(-1, A.cap + 1):
            for h in all_xi_maps(m, n):
                assert sset_action(A, h.rep) == sset_action(X, h.rep)
    again = parse_xiset(write_xiset(A))
    assert again.faces == A.faces and again.degens == A.degens

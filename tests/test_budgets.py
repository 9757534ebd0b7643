"""Work counts and allocation peaks that do not move with the host.

Each count is what a check records in its `Report.data` on a fixed input.
A count must equal its committed value: a change that lowers one updates
the table and says why, and one that raises one (say, a `validate` that
goes back to comparing the face-face identities on every simplex) fails
here without any timing.  Each peak is what `tracemalloc` sees a layer
allocate, bounded by a multiple of what the layer reads.
"""

import sys
import tracemalloc
from dataclasses import replace

import pytest

from decomp.axioms import check_decomposition, check_segal
from decomp.formats import parse_sset, write_sset
from decomp.ingest import nerve_poset
from decomp.presheaf import _check_relations, validate
from decomp.report import Report
from conftest import chain_poset, divisor_poset

# input: (spec, cap, simplices `validate` compares per identity family,
#         squares and compositions of direct exactness, squares the
#         decalage check reads off the direct one, face-face comparisons
#         on every simplex)
BUDGETS = {
    "d12": (divisor_poset(12), 6, {"dd": 48, "ss": 2940, "ds": 14112}, 22, 30, 58, 10818),
    "chain5": (chain_poset(5), 8, {"dd": 225, "ss": 37323, "ds": 167310}, 44, 47, 110, 135114),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_work_counts_are_the_committed_ones(name):
    spec, cap, compared, squares, compositions, shared, every = BUDGETS[name]
    X = nerve_poset(spec, cap)
    assert validate(X).ok and validate(X).data == compared
    direct = check_decomposition(X, "direct")
    assert (sum(direct.data["squares"].values()), direct.data["compositions"]) == (
        squares, compositions)
    assert check_decomposition(X, "decalage").data == {"shared": shared}
    full = Report("validate")
    _check_relations(full, X)
    assert full.data == {**compared, "dd": every}


def _peak(fn, *args) -> int:
    """The most memory fn(*args) held at once, as `tracemalloc` counts it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_allocation_peaks_stay_under_their_bounds(name):
    """The v1 parse holds the object it builds, under 0.8x the text it reads
    (0.64x on d12, 0.48x on chain5): a parser that held the text's lines
    passes that.  Direct exactness, on a validated object, holds one pair
    set of a square and the fibre counts of a free face, under 0.75x the
    position lists it reads (0.57x and 0.52x): one that named each square's
    sides in ids passes that.  `validate` and, on a validated object,
    `check_segal` stay under 0.5x the object's position lists (0.28x and
    0.34x, 0.31x and 0.32x): a `validate` that read its tables by id
    (`X.faces[key]`) passes that."""
    spec, cap = BUDGETS[name][:2]
    X = nerve_poset(spec, cap)
    text = write_sset(X)
    assert _peak(parse_sset, text) <= 0.8 * sys.getsizeof(text)
    X = replace(X)
    tables = sum(map(sys.getsizeof, [*X.faces.index.values(), *X.degens.index.values()]))
    assert _peak(validate, X) <= 0.5 * tables
    assert validate(X).ok
    assert _peak(check_segal, X) <= 0.5 * tables
    check_decomposition(nerve_poset(chain_poset(1), cap), "direct")  # the cap's squares, listed
    assert _peak(check_decomposition, X, "direct") <= 0.75 * tables

"""Work counts that do not move with the host.

Each count is what a check records in its `Report.data` on a fixed input.
A count must equal its committed value: a change that lowers one updates
the table and says why, and one that raises one (say, a `validate` that
goes back to comparing the face-face identities on every simplex) fails
here without any timing.
"""

import pytest

from decomp.axioms import check_decomposition
from decomp.ingest import nerve_poset
from decomp.presheaf import _check_relations, validate
from decomp.report import Report
from conftest import chain_poset, divisor_poset

# input: (spec, cap, simplices `validate` compares per identity family,
#         squares and compositions of direct exactness, squares the
#         decalage check reads off the direct one, face-face comparisons
#         on every simplex)
BUDGETS = {
    "d12": (divisor_poset(12), 6, {"dd": 48, "ss": 2940, "ds": 14112}, 50, 48, 58, 10818),
    "chain5": (chain_poset(5), 8, {"dd": 225, "ss": 37323, "ds": 167310}, 98, 80, 110, 135114),
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

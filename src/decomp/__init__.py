"""Finite decomposition sets: axiom checkers, factorisation intervals,
incidence coalgebras with exact Mobius inversion, and a content-addressed
registry of interval classes."""

from .axioms import (
    check_complete,
    check_decomposition,
    check_flanked,
    check_map_class,
    check_mobius,
    check_segal,
    check_tight,
)
from .incidence import (
    CoalgebraTable,
    QVec,
    classify,
    comult,
    convolve,
    counit_vec,
    mobius,
    registry_comult,
    universal_mobius,
    verify_inversion,
    zeta,
)
from .ingest import CategorySpec, MonoidSpec, PosetSpec, nerve
from .interval import (
    AlgebraicInterval,
    IntervalClass,
    canonicalize,
    certify_mobius_interval,
    extend_interval,
    factorisation_interval,
    longest_edge,
)
from .presheaf import (
    FinSSet,
    FinXiSet,
    SSetMap,
    XiSetMap,
    dec_bot,
    dec_top,
    i_star,
    nondegenerate,
    u_star,
    validate,
)
from .registry import Registry, build_fragment, fragment_square_report
from .simplex import (
    MonotoneMap,
    compose,
    generic_generators,
    is_free,
    is_generic,
    pushout_generic_free,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

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
    check_wide,
)
from .incidence import (
    CoalgebraTable,
    QVec,
    classify,
    comult,
    convolve,
    counit_vec,
    culf_pushforward,
    mobius,
    phi,
    registry_comult,
    universal_mobius,
    verify_inversion,
    zeta,
)
from .ingest import (
    CategorySpec,
    MonoidSpec,
    PosetSpec,
    boolean_poset,
    chain_poset,
    divisor_poset,
    nerve,
    truncated_addition,
)
from .interval import (
    AlgebraicInterval,
    IntervalClass,
    canonicalize,
    certify_mobius_interval,
    extend_interval,
    factorisation_interval,
    isomorphic,
    longest_edge,
    subdivisions,
    wide_cartesian_factor,
)
from .presheaf import (
    FinSSet,
    FinXiSet,
    SSetMap,
    XiSetMap,
    counit_eps,
    dec_bot,
    dec_top,
    ez_decompose,
    i_star,
    nondegenerate,
    u_star,
    unit_eta,
    validate,
)
from .registry import Registry, build_fragment, fragment_square_report
from .simplex import (
    MonotoneMap,
    XiMap,
    compose,
    delta_to_xi_free,
    generic_free_factor,
    generic_generators,
    is_free,
    is_generic,
    pushout_generic_free,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

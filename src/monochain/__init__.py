"""Monotone Markov chains on composition lattices.

Exact transition kernels for the Moran replacement chain and the urn chains
(three sequential Polya orders and a generalized redistribution (Ehrenfest)
urn, all one ``UrnSpec``); the monotone eigenfunctions that drive two-sided
nonasymptotic total-variation bounds from arbitrary start states; explicit
order-preserving couplings; and a desk-scale exact engine that verifies all
of it on small state spaces.
"""

from .bounds import (
    BoundReport,
    bound_report,
    crude_bound,
    steps_to_epsilon,
    tv_bound_coefficients,
)
from .coupling import (
    CoupledPair,
    coupled_step,
    dominated_pick,
    run_coupled,
)
from .errors import (
    CapacityError,
    CouplingOrderError,
    EigenConsistencyError,
    MonochainError,
    NoMonotoneConditionError,
    PerronConvergenceError,
    StationaryConvergenceError,
    UnknownStationaryError,
    ValidationError,
)
from .exact import (
    TransitionMatrix,
    build_matrix,
    stationary,
    tv_curve,
)
from .kernels import (
    Ehrenfest,
    ModelSpec,
    MoranGeneral,
    MoranStandard,
    MutationMatrix,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    UrnSpec,
    sample_step,
    spec_from_json,
    spec_to_json,
    transition_row,
)
from .spectral import (
    ConditionReport,
    EigenData,
    build_eigenfunction,
    classify_conditions,
    model_eigendata,
    perron,
)
from .statespace import (
    DEFAULT_STATE_CAP,
    Composition,
    enumerate_states,
    partial_leq,
    state_count,
    validate_composition,
)

__version__ = "0.1.0"

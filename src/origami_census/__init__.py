"""Exact enumeration and classification of square-tiled surfaces."""

from .perm import (
    CycleType,
    DegreeMismatchError,
    Perm,
    class_representative,
    centralizer_generators,
    commutator,
    compose,
    conjugate,
    perm_from_cycles,
)
from .surface import (
    DisconnectedCoverError,
    Origami,
    OrigamiError,
    StratumSignature,
    TrivialStratumError,
    canonical_form,
    canonical_key,
    horizontal_cylinders,
    make_origami,
    weight_of,
)
from .involutions import (
    InvolutionReport,
    find_anti_involutions,
    has_order_two_automorphism,
    is_hyperelliptic,
)
from .spin import ParityUndefinedError, spin_parity
from .census import (
    Census,
    CensusCorruptError,
    CensusFileError,
    CensusSchemaError,
    CensusVersionError,
    ResourceBudgetError,
    brute_force_census,
    enumerate_census,
    load_census,
    save_census,
)
from .orbits import (
    ComponentSummary,
    act_h_alpha,
    act_h_beta,
    component_slope,
    cusp_data,
    decompose,
)
from .limits import (
    ReferenceRow,
    SweepReport,
    SweepRow,
    hyperelliptic_constants,
    l_from_s_kappa,
    load_reference_table,
    reference_rows,
    s_from_c_l,
    stratum_constants,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

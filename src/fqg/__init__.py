"""Numerical verification toolkit for finite quantum groups.

Model a finite quantum group by structure constants, compute its Haar state
and GNS representation, build the multiplicative unitary, and verify the
whole identity suite at machine precision: unitarity, the pentagon equation,
the antipode relation, the dual quantum group, the Fourier transform, and
the commutativity machinery for finite group actions by automorphisms.
"""

from .actions import (
    FiniteGroupAction,
    IntertwinerData,
    build_group_action,
    build_intertwiner_data,
    conjugation_theta,
    enumerate_group_automorphisms,
    inversion_theta,
    resolve_automorphisms,
    verify_action_intertwiner,
    verify_beta,
    verify_gamma,
    verify_haar_invariance,
    verify_slice_commutativity,
    verify_strong_right_invariance,
)
from .builders import (
    function_algebra,
    group_algebra,
    load_algebra,
    preset,
    preset_names,
    resolve_algebra,
    save_algebra,
)
from .duality import (
    G_map,
    build_dual,
    convolve,
    fourier,
    functional_star,
    verify_fourier,
    verify_G_isomorphism,
)
from .errors import (
    CoactionAxiomFailed,
    DimensionMismatch,
    ExpansionFailed,
    FqgError,
    InvalidGroupTable,
    ModeUnavailable,
    NoInvariantFunctional,
    NonUniqueHaar,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotInDualSubspace,
    NotPositive,
    NumericalFailure,
    ParseError,
    SchemaVersionMismatch,
    StructuralError,
    UnknownPreset,
    VerificationError,
)
from .groups import CayleyTable, cayley_from_table, cyclic_group, group_preset, symmetric_group_3
from .haar import (
    Functional,
    GnsData,
    compute_haar,
    fourier_matrix,
    gns_construct,
    haar_invariance_residual,
    verify_gns,
    verify_trace,
)
from .hopf import (
    DEFAULT_TOL,
    FiniteHopfStarAlgebra,
    is_hopf_star_automorphism,
    verify_hopf_star_axioms,
)
from .multiplicative import (
    DualSubspace,
    MultiplicativeUnitary,
    build_dual_subspace,
    build_multiplicative_unitary,
    dual_coproduct,
    dual_coproduct_checked,
    inverse_via_antipode,
    pentagon_residual,
    verify_antipode_relation,
    verify_coproduct_implemented,
    verify_dual_coproduct_identities,
    verify_inverse_via_antipode,
    verify_left_slices_span,
    verify_pentagon,
    verify_unitarity,
)
from .report import Check, VerificationReport
from .suite import action_suite, full_suite
from .tensors import TensorOperator, embed_legs

__version__ = "0.1.0"

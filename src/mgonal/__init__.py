"""Generalized m-gonal forms: local and global representability, p-adic
stability machinery, and exceptional-set censuses."""

from .arith import (
    INFINITY,
    PAdicContext,
    hilbert_symbol,
    is_prime,
    ord_and_unit,
    ordp,
)
from .census import (
    ExceptionalReport,
    ScalingResult,
    ScalingRow,
    exceptional_set,
    scaling_experiment,
)
from .errors import (
    AnomalyWarning,
    ContractError,
    InputError,
    MgonalError,
    ResourceError,
)
from .localrep import (
    LocalRepresentation,
    LocalVerdict,
    locally_represents,
    locally_represents_at,
    relevant_primes,
)
from .polygonal import (
    MgonalForm,
    TargetDecomposition,
    Witness,
    coefficient_gcd,
    decompose_target,
    evaluate,
    invert_polygonal,
    polygonal_number,
    represents,
)
from .quadratic import (
    Eq2Verdict,
    HEXAGONAL_PLANE,
    HYPERBOLIC_PLANE,
    JordanDecomposition,
    ReducedQuadratic,
    bareiss_determinant,
    eq2_residual,
    eq2_stability_depth,
    is_isotropic,
    jordan_decompose,
    reduced_quadratic,
)
from .theorem import (
    AdmissiblePair,
    AdmissibleSearch,
    KConstant,
    StabilityExponent,
    admissible_k,
    bad_primes,
    k_constant,
    k_stability_exponent,
    unit_deficient_primes,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Canonical Jordan bases of real H-selfadjoint matrix pairs.

The package constructs flipped-orthogonal (FO), conjugate-symmetric FOCS,
and real canonical (RC) Jordan bases, and measures their Lipschitz
stability under structure-preserving perturbations.
"""

from .chains import (
    fit_chain_to,
    jordan_chains,
    reduce_real_chain,
    toeplitz_inv_sqrt,
)
from .errors import (
    AmbiguousMatchError,
    CanonError,
    DegenerateGramError,
    DeltaUnreachableError,
    EigenvalueDriftError,
    KindMismatchError,
    NotConjugateSymmetricError,
    NotHermitianError,
    NotRealError,
    NotUnitTriangularError,
    PureImaginaryAnchorError,
    RetryExhaustedError,
    SingularBasisError,
    SingularInnerProductError,
    SingularMatrixError,
    StructureMismatchError,
    TrialError,
)
from .harness import (
    Instance,
    PerturbedPair,
    StabilityReport,
    TrialRecord,
    anchored_canonize,
    estimate_lipschitz,
    generate_instance,
    match_eigenvalues,
    perturb_instance,
)
from .linalg import (
    DEFAULT_TOL,
    affiliation_residuals,
    mat_norm,
    matrix_from_json,
    matrix_to_json,
)
from .pipeline import (
    CanonicalBasis,
    Certificate,
    GramAnchor,
    PipelineTrace,
    flip_step,
    focs_basis,
    phase_step,
    scale_step,
    symmetrize_step,
)
from .rc import rc_basis
from .structure import (
    BlockSpec,
    JordanSpec,
    conjugate_symmetry_fit,
    h_selfadjoint_residual,
    jordan_form,
    mixing_matrix,
    mixing_matrix_inv,
    real_jordan_form,
    sip_form,
)

__version__ = "0.1.0"

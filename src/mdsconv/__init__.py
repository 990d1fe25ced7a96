"""Convertible MDS erasure codes over extended generalized Reed-Solomon codes.

Builds access-optimal merge and split conversion plans, executes
conversions on codewords through one lowered linear map per final code,
and verifies plans against the access-cost lower bounds and the
structural optimality characterization.
"""

from .convert import (
    AccessReport,
    ConvertParams,
    GeneralPlan,
    MergeBound,
    MergePlan,
    SplitBound,
    SplitPlan,
    StructureCheck,
    access_report,
    build_merge,
    build_split,
    general_convert,
    lower,
    merge_convert,
    merge_lower_bound,
    merge_params,
    plan_report,
    reduced_read_codes,
    required_field_order,
    run_conversion,
    split_convert,
    split_lower_bound,
    verify_optimal_structure,
    verify_plan,
)
from .errors import (
    CertificateError,
    CorruptionError,
    InsufficientDataError,
    InternalError,
    MdsconvError,
    ParameterError,
    SingularMatrixError,
    UsageError,
)
from .field import GF, FieldSpec
from .grs import (
    Codeword,
    ExtGrsSpec,
    encode,
    generator,
    is_codeword,
    parity_check,
    puncture,
    recover_erasures,
    spec_from_dict,
    spec_to_dict,
)
from .linalg import (
    FieldMatrix,
    from_rows,
    identity,
    invert,
    matmul,
    matrix_from_text,
    matrix_to_text,
    matvec,
    rank,
    right_kernel_basis,
    rref,
    solve_linear,
    submatrix_cols,
    transpose,
    vandermonde_ext,
    vecmat,
)

__version__ = "0.1.0"

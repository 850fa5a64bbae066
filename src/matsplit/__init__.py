"""Explicit isomorphisms of full matrix algebras over Q, Q(i) and Q(sqrt(-3)).

Given structure constants of an algebra promised to be isomorphic to
M_n(K), the splitter computes a maximal order, embeds it as a Euclidean
lattice, and enumerates short vectors until an element of matrix rank one
appears; that element generates a minimal left ideal realizing the
isomorphism, verified in exact arithmetic.
"""

from .algebra import (
    AlgebraElement,
    IsomorphismWitness,
    StructureConstants,
    build_isomorphism,
    find_identity,
    ideal_rank,
    matrix_units_table,
    multiply,
    trace_gram,
    validate,
)
from .errors import (
    BudgetError,
    EnumerationBudgetError,
    FactorBudgetError,
    InputError,
    InternalError,
    MatsplitError,
    NoIdentityError,
    PrecisionError,
    PromiseViolation,
)
from .exactnum import QQ, ExactMatrix, Field, QuadScalar
from .embed import Embedding, EmbeddedLattice, embed_order, embedding_from_images, rationalize, split_numeric
from .lattice import (
    LatticeBasis,
    TensorExperimentReport,
    berge_martinet_upper,
    c_m,
    dual_basis,
    hermite_gamma,
    lenstra_coefficient_bounds,
    lll_reduce,
    min_norm_by_matrix_rank,
    min_rank_floor,
    orthogonality_defect,
    rank_norm_floor,
    short_vectors,
    tensor_product,
    trace_product_check,
)
from .orders import Order, enlarge_at_p, initial_order, maximal_order, p_radical
from .quadfield import (
    FieldData,
    HermitianLattice,
    Surd,
    empirical_r_lambda,
    gamma_h,
    gamma_h_kappa_upper,
    gamma_h_upper,
    kappa,
    nearest_ok,
    r_lambda_upper,
    tau,
)
from .splitter import (
    GeneratedInstance,
    SplitConfig,
    SplitResult,
    generate_instance,
    split,
    split_imag_quad,
    split_over_Q,
)

__version__ = "0.1.0"

"""Zeta functions of abelian quotients of the affine-Weyl Cayley graph.

Exact computation and cross-verification of the positive-geodesic zeta (by
determinant, direction orders, character product modulo primes, and geodesic
enumeration), the classical Ihara zeta via the Bass determinant, and the
several-variable Selberg-type zeta with its cone-sum rational closed form.
"""

from .errors import (
    BoxExhaustionError,
    DivergentSeriesError,
    MultigraphError,
    ResourceCapError,
    SingularMatrixError,
    TypeZeroViolationError,
)
from .lattice import (
    AffineElement,
    ConeDecomposition,
    FaceDescriptor,
    LatticeVector,
    LengthVector,
    Permutation,
    all_faces,
    all_permutations,
    cone_decompose,
    face_length_exponents,
    length_vector,
    rational_cone_sum,
    type_of,
)
from .polynomials import IntPolynomial, MultiRational, MultiSeries
from .quotient import (
    AffineSubgroup,
    Character,
    FiniteAbelianGroup,
    TranslationSubgroup,
    characters,
    quotient_group,
)
from .cayley import (
    GeneratorSet,
    QuotientGraph,
    build_graph,
    export_edge_list,
    generator_set,
    perturb_adjacency,
    typed_adjacency,
)
from .zeta import (
    GeodesicClass,
    backtrackless_cycle_product,
    enumerate_backtrackless_cycles,
    enumerate_positive_geodesics,
    euler_product_truncation,
    ihara_bass,
    ihara_zeta_series,
    zeta_positive_det,
    zeta_positive_orders,
)
from .selberg import (
    ComparisonReport,
    ConjugacyClass,
    affine_conjugacy_classes,
    comparison_check,
    selberg_rational_translation,
    selberg_series_translation,
)
from .cli import RunConfig, run_config

__version__ = "0.1.0"

"""Exact-arithmetic invariants of Artinian local algebras.

Hilbert functions, socles, minimal generator counts and their bounds;
canonical models of stretched and almost-stretched Gorenstein algebras
with certified normalization; classification of the (1,2,2,2,1,1,1)
complete intersections; numerical-semigroup presentation counts for
monomial curves.  All arithmetic is exact, over the rationals or iterated
quadratic extensions.
"""

from .errors import (
    CertificationFailed,
    FieldExtensionRequired,
    FieldMismatch,
    GcdNotOne,
    NonMinimalGenerators,
    NotAlmostStretched,
    NotApplicable,
    NotArtinian,
    NotGorenstein,
    NotStretched,
    ParseError,
    ResidueNotPower,
    SearchExhausted,
    WrongHilbertFunction,
)
from .scalars import QQ, Scalar, adjoin_sqrt, common_field
from .polynomials import (
    Polynomial,
    RingMap,
    monomials_of_degree,
    parse_poly,
    poly_to_str,
    random_invertible_map,
)
from .quotient import (
    AlgebraElement,
    ArtinAlgebra,
    IdealPresentation,
    algebra_report,
    build_quotient,
    extend_scalars,
    leading_forms,
    min_gens,
    nth_root,
    row_space_equal,
)
from .bounds import (
    BoundReport,
    binomial_expansion,
    bound_report,
    erv_upper,
    hf_admissible,
    lex_segment,
    lower_bound,
    macaulay_shift,
    t_and_r,
)
from .structure import (
    AlmostStretchedParams,
    StretchedParams,
    find_lean_basis,
    make_1321_models,
    make_almost_stretched,
    make_stretched,
    normalize,
)
from .classify7 import (
    ClassificationResult,
    classify,
    classify_ideal,
    contains_split_quadric,
    invariant_separates,
    make_model,
)
from .semigroups import (
    FactorizationGraph,
    NumericalSemigroup,
    check_rgs,
    enumerate_semigroups,
    factorization_graph,
    kernel_min_gens,
    min_presentation_size,
    semigroup_invariants,
    semigroup_report,
)

__version__ = "1.0.0"

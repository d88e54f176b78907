"""cmtk: exact computational toolkit for imaginary quadratic extensions of F_q(T)."""

SCHEMA_VERSION = "cmtk-1"

from .errors import (
    BudgetError,
    CmtkError,
    DomainError,
    FieldRejected,
    NotSplitError,
    UnsupportedPath,
)
from .ffpoly import (
    Poly,
    as_prime,
    factor_monic,
    fq_from_q,
    irreducibles,
    jacobi_symbol,
    monic_polys,
    parse_poly,
    quadratic_character,
)
from .quadfield import (
    QuadOrder,
    analyze_quadratic,
    class_group,
    class_number_zeta,
    compose,
    enumerate_reduced_forms,
    hK_lower_bound,
    order_class_number,
    principal_form,
    reduce_form,
)
from .cmcat import (
    CMPoint,
    catalogue_total,
    enumerate_cm_points,
    find_split_prime,
    galois_orbit,
    point_from_row,
    split_prime_form,
)
from .treeiso import (
    RegularTree,
    bigdegree_bound,
    count_avoiding_geodesics,
    hecke_coset_reps,
    psi,
)
from .splitcount import (
    SplittingSpec,
    cebotarev_window,
    count_split_primes,
)
from .certify import (
    CurveHypothesis,
    certify_point,
    check_improper,
    find_admissible_prime,
    minimal_height_bound,
    reaudit,
    step3_ladder,
)
from .heegner import (
    HeegnerSearchSpec,
    find_heegner_fields,
    order_tower,
)
from .jsonio import (
    canonical_dumps,
    load_schema,
)

__all__ = [
    "BudgetError",
    "CmtkError",
    "DomainError",
    "FieldRejected",
    "NotSplitError",
    "UnsupportedPath",
    "Poly",
    "as_prime",
    "factor_monic",
    "fq_from_q",
    "irreducibles",
    "jacobi_symbol",
    "monic_polys",
    "parse_poly",
    "quadratic_character",
    "QuadOrder",
    "analyze_quadratic",
    "class_group",
    "class_number_zeta",
    "compose",
    "enumerate_reduced_forms",
    "hK_lower_bound",
    "order_class_number",
    "principal_form",
    "reduce_form",
    "CMPoint",
    "catalogue_total",
    "enumerate_cm_points",
    "find_split_prime",
    "galois_orbit",
    "point_from_row",
    "split_prime_form",
    "RegularTree",
    "bigdegree_bound",
    "count_avoiding_geodesics",
    "hecke_coset_reps",
    "psi",
    "SplittingSpec",
    "cebotarev_window",
    "count_split_primes",
    "CurveHypothesis",
    "certify_point",
    "check_improper",
    "find_admissible_prime",
    "minimal_height_bound",
    "reaudit",
    "step3_ladder",
    "HeegnerSearchSpec",
    "find_heegner_fields",
    "order_tower",
    "canonical_dumps",
    "load_schema",
]

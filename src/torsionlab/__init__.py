"""Torsion towers, spectra and block-diagonalization of operator fields."""

from .algebra import (
    AlgebraCheckReport,
    BivarPoly,
    PolySpec,
    PreservationReport,
    TriPoly,
    bezout_identity_residual,
    bezout_quotient,
    check_algebra,
    check_polynomial_preservation,
    cyclic_basis,
    poly_of_operator,
    rep_apply,
)
from .charts import (
    BlockPartition,
    DiffeoChart,
    OneFormExpr,
    detect_blocks,
    integrate_exact_one_form,
    jacobian_at,
    pushforward_at,
    pushforward_field,
    verify_diffeo,
)
from .expr import (
    Chart,
    Expr,
    SampleDomain,
    diff,
    eval_at,
    eval_many,
    format_expr,
    parse_expr,
    sample_points,
)
from .fields import (
    LinCombOperator,
    OperatorAtPoint,
    OperatorField,
    PolyOperator,
    PowerOperator,
    ProductOperator,
    TorsionTensor,
    VanishingReport,
    VectorFieldExpr,
    apply,
    eigenchain_formula_rhs,
    identity_operator,
    is_vanishing,
    level_up,
    lie_bracket,
    nijenhuis_at,
    torsion_at,
    torsion_many,
)
from .manifest import Manifest, fixture_path, load_manifest
from .spectral import (
    JointRefinement,
    RegularityReport,
    SpectrumAtPoint,
    involutivity_check,
    joint_refinement,
    max_principal_angle,
    minimal_poly_degree_at,
    regularity_check,
    spectrum_at,
)

__version__ = "0.1.0"

"""Topology of boolean CSP solution spaces.

Relations and formulas, exhaustive solution spaces, induced cubical
complexes, exact homology, clause reductions, and empirical checks of the
structural properties that separate tractable from intractable boolean
CSPs.
"""

from .errors import CspTopoError, ParseError, PreconditionError, ResourceLimitError
from .relations import (
    CONDITIONS,
    PropertyFlags,
    Relation,
    SchaeferVerdict,
    parse_relation,
    parse_relations,
    relation_properties,
    schaefer_classify,
)
from .formula import (
    AffineSystem,
    Clause,
    Const,
    Formula,
    RelationConstraint,
    Var,
    clause_shape,
    emit_affine,
    emit_csp,
    emit_dimacs,
    formula_in_flavor,
    parse_csp,
    parse_dimacs,
    remove_tautologies,
)
from .solution_space import (
    D_MAX,
    VertexSet,
    affine_solutions,
    drop_unconstrained,
    drop_unconstrained_affine,
    emit_vset,
    enumerate_solutions,
    full_cube,
    parse_vset,
    project,
)
from .cubical import (
    FACE_MAX,
    CubicalComplex,
    Face,
    boundary_columns,
    emit_complex,
    induce_complex,
    skeleton_components,
    union_complex,
)
from .homology import (
    COEFF_Q,
    COEFF_Z,
    COEFF_Z2,
    HomologyProfile,
    gf2_rank,
    homology,
    simplicial_homology,
)
from .constructions import (
    ReductionResult,
    SimplicialComplex,
    eliminate_affine,
    eliminate_clausal,
    emit_scomplex,
    parse_scomplex,
    project_affine,
    project_clausal,
    simplicial_to_vertexset,
    to_322sat,
    to_3sat,
    vertexset_to_cnf,
)
from .verify import (
    ONE_IN_THREE,
    CheckReport,
    Failure,
    GeneratorParams,
    check_affine_structure,
    check_one_in_three_structure,
    check_projection_constructions,
    check_tractable_homology,
    check_trivially_valid,
    check_wedge_union,
    random_formula,
)

__version__ = "0.1.0"

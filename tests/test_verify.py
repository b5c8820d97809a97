import dataclasses
import json
import math

import pytest

from csptopo import (
    AffineSystem,
    Clause,
    Formula,
    GeneratorParams,
    ONE_IN_THREE,
    PreconditionError,
    Relation,
    check_affine_structure,
    check_one_in_three_structure,
    check_projection_constructions,
    check_tractable_homology,
    check_trivially_valid,
    check_wedge_union,
    enumerate_solutions,
    formula_in_flavor,
    homology,
    induce_complex,
    random_formula,
    relation_properties,
    skeleton_components,
)
from csptopo.relations import PAIR_MAX, _is_coset


def test_one_in_three_relation_table():
    assert ONE_IN_THREE.tuples == frozenset({1, 2, 4})
    assert not any(relation_properties(ONE_IN_THREE).as_dict().values())


def test_random_formula_deterministic():
    params = GeneratorParams(flavor="two_sat", dim_range=(2, 4), count_range=(1, 5), seed=1)
    first = random_formula(params, 3)
    second = random_formula(params, 3)
    assert first == second
    other_seed = dataclasses.replace(params, seed=99)
    assert random_formula(other_seed, 3) != first


@pytest.mark.parametrize("flavor", ["two_sat", "horn", "dual_horn"])
def test_random_formula_respects_flavor(flavor):
    params = GeneratorParams(flavor=flavor, dim_range=(2, 6), count_range=(1, 8), seed=5)
    for trial in range(20):
        formula = random_formula(params, trial)
        assert formula_in_flavor(formula, flavor)
        assert not any(c.is_tautology() for c in formula.clauses())


def test_random_formula_affine_and_one_in_three():
    params = GeneratorParams(flavor="affine", dim_range=(2, 5), count_range=(1, 5), seed=2)
    system = random_formula(params, 0)
    assert isinstance(system, AffineSystem)
    assert len(system.equations) <= system.dimension

    params = GeneratorParams(
        flavor="one_in_three", dim_range=(3, 6), count_range=(1, 4), seed=2
    )
    formula = random_formula(params, 0)
    assert formula.relations == (ONE_IN_THREE,)


def test_random_formula_cnf_width_cap():
    params = GeneratorParams(flavor="cnf(6)", dim_range=(6, 8), count_range=(1, 6), seed=3)
    widths = set()
    for trial in range(30):
        for clause in random_formula(params, trial).clauses():
            widths.add(clause.width)
    assert max(widths) <= 6
    assert max(widths) >= 4  # long clauses actually occur


def test_generator_params_validation():
    with pytest.raises(PreconditionError):
        GeneratorParams(flavor="two_sat", dim_range=(0, 4))
    with pytest.raises(PreconditionError):
        GeneratorParams(flavor="nonsense")
    with pytest.raises(PreconditionError):
        GeneratorParams(flavor="one_in_three", dim_range=(2, 5))


def test_check_reports_are_reproducible():
    params = GeneratorParams(flavor="horn", dim_range=(2, 6), count_range=(1, 8), seed=9)
    first = check_tractable_homology(params, trials=25)
    second = check_tractable_homology(params, trials=25)
    strip = lambda report: {
        k: v for k, v in report.to_json_dict().items() if k != "ms"
    }
    assert strip(first) == strip(second)
    assert first.passed
    payload = json.dumps(first.to_json_dict())
    assert '"check": "tractable-homology"' in payload


def test_check_tractable_homology_small_run():
    for flavor in ("two_sat", "dual_horn"):
        params = GeneratorParams(
            flavor=flavor, dim_range=(2, 7), count_range=(1, 12), seed=4
        )
        assert check_tractable_homology(params, trials=40).passed


def test_tractable_homology_inversion_witness(fig1):
    """Fig. 1's formula is in no tractable clause class and the property
    it checks really fails there: betti_1 = 1."""
    profile = homology(induce_complex(enumerate_solutions(fig1)))
    assert not profile.is_trivial_above(1)
    params = GeneratorParams(flavor="cnf(3)", dim_range=(2, 4), count_range=(1, 3), seed=0)
    with pytest.raises(PreconditionError):
        check_tractable_homology(params, trials=1)


def test_check_affine_structure_small_run():
    params = GeneratorParams(flavor="affine", dim_range=(2, 9), count_range=(1, 6), seed=6)
    report = check_affine_structure(params, trials=40)
    assert report.passed


def test_affine_structure_single_equation_example():
    system = AffineSystem(2, ((0b11, 1),))
    from csptopo import affine_solutions

    solutions = affine_solutions(system)
    complex_ = induce_complex(solutions)
    assert complex_.f_vector() == (2,)
    assert homology(complex_).betti == (2,)


def test_affine_structure_degenerate_empty_system():
    """A system with no equations drops to one retained variable whose
    solution space is the full (contractible) cube."""
    from csptopo import affine_solutions, drop_unconstrained_affine, full_cube

    reduced, dropped = drop_unconstrained_affine(AffineSystem(2, ()))
    assert reduced.dimension == 1 and dropped == (1,)
    solutions = affine_solutions(reduced)
    assert solutions == full_cube(1)
    profile = homology(induce_complex(solutions))
    assert profile.betti[0] == 1 and profile.is_trivial_above(1)


def test_affine_structure_inversion_witness():
    """A non-affine constraint yields edges, which the check would flag."""
    formula = Formula(2, (Clause.of(1, 2),))
    complex_ = induce_complex(enumerate_solutions(formula))
    assert complex_.f_vector()[1] != 0


def test_check_wedge_union_small_run():
    for flavor in ("two_sat", "horn"):
        params = GeneratorParams(flavor=flavor, dim_range=(3, 6), count_range=(1, 4), seed=8)
        for n in (1, 2, 3):
            assert check_wedge_union(params, n, trials=25).passed


def test_wedge_union_boundary_can_be_nontrivial():
    """At p = n - 1 the union bound is not asserted; two 2-SAT wedges can
    form a circle, so H_1 of a 2-wedge union need not vanish."""
    left = Formula(2, (Clause.of(1, 2),))
    right = Formula(2, (Clause.of(-1, -2),))
    from csptopo import union_complex

    union = union_complex(
        [
            induce_complex(enumerate_solutions(left)),
            induce_complex(enumerate_solutions(right)),
        ]
    )
    profile = homology(union)
    assert profile.betti == (1, 1)  # a 4-cycle
    assert profile.is_trivial_above(2)


def test_wedge_union_inversion_witness_nae(nae):
    """A single wedge of a non-clausal constraint (NAE) already violates
    the n = 1 bound: its complex is a hexagon with betti_1 = 1."""
    from csptopo import RelationConstraint, Var

    formula = Formula(3, (RelationConstraint(0, (Var(0), Var(1), Var(2))),), (nae,))
    profile = homology(induce_complex(enumerate_solutions(formula)))
    assert not profile.is_trivial_above(1)


def test_check_trivially_valid_zero_and_one(r_zero):
    params = GeneratorParams(flavor="cnf(3)", dim_range=(2, 6), count_range=(1, 5), seed=10)
    assert check_trivially_valid(params, [r_zero], trials=30).passed
    ones = Relation.of(2, ("11", "01"), name="ONES")
    assert check_trivially_valid(params, [ones], trials=30).passed


def test_check_trivially_valid_needs_no_classification():
    # 0-valid, but with more tuple pairs than the Schaefer flags admit
    count = math.isqrt(2 * PAIR_MAX) + 2
    big = Relation(count.bit_length(), frozenset(range(count)))
    params = GeneratorParams(flavor="cnf(3)", dim_range=(15, 15), count_range=(1, 1), seed=0)
    assert check_trivially_valid(params, [big], trials=2).passed


def test_check_trivially_valid_rejects_mixed(r_zero, nae):
    params = GeneratorParams(flavor="cnf(3)", dim_range=(2, 4), count_range=(1, 3), seed=0)
    with pytest.raises(PreconditionError):
        check_trivially_valid(params, [r_zero, nae], trials=5)


def test_check_one_in_three_small_run():
    params = GeneratorParams(
        flavor="one_in_three", dim_range=(3, 8), count_range=(1, 5), seed=12
    )
    report = check_one_in_three_structure(params, trials=40)
    assert report.passed


def test_one_in_three_single_constraint_components():
    from csptopo import RelationConstraint, Var

    formula = Formula(3, (RelationConstraint(0, (Var(0), Var(1), Var(2))),), (ONE_IN_THREE,))
    complex_ = induce_complex(enumerate_solutions(formula))
    count, _ = skeleton_components(complex_)
    assert count == 3
    assert homology(complex_).betti == (3,)


def test_one_in_three_inversion_witness(fig1):
    """The hexagon is connected but spans no single subcube, so the
    component-is-a-face predicate genuinely discriminates."""
    complex_ = induce_complex(enumerate_solutions(fig1))
    count, labels = skeleton_components(complex_)
    assert count == 1
    vertices = list(labels)
    and_mask = or_mask = vertices[0]
    for v in vertices[1:]:
        and_mask &= v
        or_mask |= v
    free = or_mask & ~and_mask
    assert len(vertices) != 1 << free.bit_count()


def test_check_projection_constructions_all_flavors():
    for flavor in ("two_sat", "horn", "dual_horn", "affine"):
        params = GeneratorParams(flavor=flavor, dim_range=(2, 7), count_range=(1, 8), seed=14)
        assert check_projection_constructions(params, trials=60).passed


def test_is_affine_set_detects_non_cosets():
    assert _is_coset([])
    assert _is_coset([1, 2])
    assert not _is_coset([0, 1, 2])


def test_failure_reporting_shape():
    params = GeneratorParams(flavor="horn", dim_range=(2, 4), count_range=(1, 4), seed=15)
    report = check_tractable_homology(params, trials=5)
    data = report.to_json_dict()
    assert set(data) == {"check", "trials", "failures", "seed", "ms"}
    assert data["trials"] == 5 and data["seed"] == 15

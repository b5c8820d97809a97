"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
from scipy import sparse

from csptopo import (
    GeneratorParams,
    ONE_IN_THREE,
    Relation,
    boundary_columns,
    check_affine_structure,
    check_projection_constructions,
    check_tractable_homology,
    check_wedge_union,
    clause_shape,
    enumerate_solutions,
    homology,
    induce_complex,
    parse_dimacs,
    project,
    random_formula,
    relation_properties,
    schaefer_classify,
    simplicial_homology,
    simplicial_to_vertexset,
    skeleton_components,
    to_322sat,
    to_3sat,
    VertexSet,
)

from conftest import FIG1_DIMACS


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(
        f"{status} criterion {number}: {label} "
        f"({elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {number} failed"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_circle_reproduction():
    start = time.perf_counter()
    formula = parse_dimacs(FIG1_DIMACS)
    complex_ = induce_complex(enumerate_solutions(formula))
    profile = homology(complex_, "Z")
    ok = (
        profile.betti == (1, 1)
        and profile.torsion == ((), ())
        and complex_.f_vector() == (6, 6)
    )
    _report(1, "two-clause formula induces a circle", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_tractable_triviality():
    start = time.perf_counter()
    ok = True
    for flavor in ("two_sat", "horn", "dual_horn"):
        params = GeneratorParams(
            flavor=flavor, dim_range=(2, 10), count_range=(1, 25), seed=7
        )
        report = check_tractable_homology(params, trials=200)
        ok = ok and report.passed
    _report(
        2,
        "600 tractable-class instances have trivial homology above degree 0",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_3_affine_structure():
    start = time.perf_counter()
    params = GeneratorParams(
        flavor="affine", dim_range=(2, 12), count_range=(1, 8), seed=5
    )
    report = check_affine_structure(params, trials=100)
    _report(
        3,
        "100 affine systems: edge-free complexes, one component per solution",
        report.passed,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_wedge_union_bound():
    start = time.perf_counter()
    ok = True
    for flavor in ("two_sat", "horn"):
        for n in (1, 2, 3, 4):
            params = GeneratorParams(
                flavor=flavor, dim_range=(3, 8), count_range=(1, 4), seed=13
            )
            report = check_wedge_union(params, n, trials=100)
            ok = ok and report.passed
    _report(
        4,
        "unions of n clause wedges have trivial homology in degrees >= n",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_5_reduction_fidelity():
    start = time.perf_counter()
    params = GeneratorParams(
        flavor="cnf(6)", dim_range=(2, 8), count_range=(1, 3), seed=42
    )
    ok = True
    for trial in range(100):
        formula = random_formula(params, trial)
        original = enumerate_solutions(formula)
        first = to_3sat(formula)
        second = to_322sat(first.formula)
        shape = clause_shape(second.formula)
        if not all(a <= b for a, b in zip(shape, (3, 2, 2))):
            ok = False
            break
        dims3 = set(first.projection_dims)
        dims322 = dims3 | set(second.projection_dims)
        v3 = enumerate_solutions(first.formula)
        v322 = enumerate_solutions(second.formula)
        back3 = project(v3, dims3) if dims3 else v3
        back322 = project(v322, dims322) if dims322 else v322
        if back3 != original or back322 != original:
            ok = False
            break
        reference = homology(induce_complex(original)).trimmed()
        if (
            homology(induce_complex(v3)).trimmed() != reference
            or homology(induce_complex(v322)).trimmed() != reference
        ):
            ok = False
            break
    _report(
        5,
        "3-CNF and shape-(3,2,2) reductions preserve projections and homology",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_6_projection_closure():
    start = time.perf_counter()
    ok = True
    for flavor in ("two_sat", "horn", "dual_horn", "affine"):
        params = GeneratorParams(
            flavor=flavor, dim_range=(2, 8), count_range=(1, 10), seed=11
        )
        report = check_projection_constructions(params, trials=200)
        ok = ok and report.passed
    _report(
        6,
        "constructive projection matches brute force and stays in class",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_7_classification_table():
    start = time.perf_counter()
    nae = Relation.of(3, ("001", "010", "011", "100", "101", "110"), name="NAE")
    xor2 = Relation.of(2, ("01", "10"), name="XOR2")
    implication = Relation.of(2, ("00", "01", "11"), name="IMPL")
    r0 = Relation.of(3, ("000", "110", "101"), name="R0")

    checks = []
    checks.append(not schaefer_classify([nae]).tractable)
    checks.append(not schaefer_classify([nae], with_constants=True).tractable)

    one_in_three_flags = relation_properties(ONE_IN_THREE)
    checks.append(not any(one_in_three_flags.as_dict().values()))
    checks.append(not schaefer_classify([ONE_IN_THREE], with_constants=True).tractable)

    xor2_verdict = schaefer_classify([xor2], with_constants=True)
    checks.append(xor2_verdict.tractable and xor2_verdict.per_relation_flags[0].affine)

    impl_flags = relation_properties(implication)
    impl_verdict = schaefer_classify([implication], with_constants=True)
    checks.append(
        impl_verdict.tractable
        and impl_flags.horn
        and impl_flags.dual_horn
        and impl_flags.bijunctive
    )

    without = schaefer_classify([r0], with_constants=False)
    with_constants = schaefer_classify([r0], with_constants=True)
    checks.append(without.tractable and without.witness_condition == "zero_valid")
    checks.append(not with_constants.tractable)

    _report(
        7,
        "classification table (NAE, 1-in-3, XOR2, implication, R0)",
        all(checks),
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_8_realization_pipeline(
    triangle_boundary, two_vertices, projective_plane
):
    start = time.perf_counter()
    ok = True
    for fixture in (triangle_boundary, two_vertices, projective_plane):
        realized = induce_complex(simplicial_to_vertexset(fixture))
        for coeffs in ("Z", "Q", "Z2"):
            cubical = homology(realized, coeffs).trimmed()
            reference = simplicial_homology(fixture, coeffs).trimmed()
            ok = ok and cubical == reference
    plane_integral = simplicial_homology(projective_plane, "Z")
    ok = ok and plane_integral.torsion[1] == (2,)
    _report(
        8,
        "realized complexes reproduce simplicial homology (incl. torsion 2)",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def _boundary_sparse(complex_, p):
    columns = boundary_columns(complex_, p)
    rows_idx, cols_idx, values = [], [], []
    for j, column in enumerate(columns):
        for i, sign in column:
            rows_idx.append(i)
            cols_idx.append(j)
            values.append(sign)
    return sparse.coo_matrix(
        (values, (rows_idx, cols_idx)),
        shape=(complex_.f_vector()[p - 1], len(columns)),
        dtype=np.int64,
    ).tocsc()


def test_criterion_9_structural_invariants():
    import random

    start = time.perf_counter()
    rng = random.Random(123)
    ok = True
    for _ in range(500):
        d = rng.randint(2, 8)
        density = rng.random()
        members = frozenset(v for v in range(1 << d) if rng.random() < density)
        complex_ = induce_complex(VertexSet(d, members))
        for p in range(2, complex_.top_dimension + 1):
            product = _boundary_sparse(complex_, p - 1) @ _boundary_sparse(complex_, p)
            product.eliminate_zeros()
            if product.nnz:
                ok = False
        profile = homology(complex_, "Z")
        components, _ = skeleton_components(complex_)
        if components != profile.degree(0)[0]:
            ok = False
        fvec = complex_.f_vector()
        euler_faces = sum((-1) ** p * count for p, count in enumerate(fvec))
        euler_betti = sum((-1) ** p * b for p, b in enumerate(profile.betti))
        if euler_faces != euler_betti:
            ok = False
        if not ok:
            break
    _report(
        9,
        "dd=0, components=betti_0, Euler identity on 500 random vertex sets",
        ok,
        time.perf_counter() - start,
        60.0,
    )

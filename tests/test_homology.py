import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csptopo import (
    AffineSystem,
    Formula,
    HomologyProfile,
    VertexSet,
    affine_solutions,
    enumerate_solutions,
    full_cube,
    gf2_rank,
    homology,
    induce_complex,
    simplicial_homology,
    simplicial_to_vertexset,
    union_complex,
)
from csptopo.homology import _free_pair_collapse
from csptopo.verify import GeneratorParams, random_formula

from oracles import boundary_matrix, dense_snf_diagonal, smith_normal_form


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)


def test_snf_already_diagonal():
    assert smith_normal_form([[2, 0], [0, 2]]) == (2, 2)


def test_snf_hand_elimination_example():
    # det = -2, gcd of entries 1, so the chain is (1, 2)
    assert smith_normal_form([[1, 1], [1, -1]]) == (1, 2)


def test_snf_zero_and_rectangular():
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == (0, 0)
    assert smith_normal_form([[0, 4, 0], [6, 0, 0]]) == (2, 12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_snf_hybrid_matches_dense_and_chains(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    form = smith_normal_form(entries)
    dense_diag = tuple(dense_snf_diagonal([r[:] for r in entries], rows, cols))
    assert form == dense_diag
    for a, b in zip(form, form[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert len(form) == min(rows, cols)


def test_gf2_rank_bitsets():
    assert gf2_rank([0b01, 0b10, 0b11]) == 2
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0


def test_hexagon_profile(fig1):
    profile = homology(induce_complex(enumerate_solutions(fig1)))
    assert profile.betti == (1, 1)
    assert profile.torsion == ((), ())


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_full_cube_contractible(d):
    profile = homology(induce_complex(full_cube(d)))
    assert profile.betti[0] == 1
    assert profile.is_trivial_above(1)


def test_empty_complex_profile():
    profile = homology(induce_complex(VertexSet(2, frozenset())))
    assert profile.betti == () and profile.torsion == ()


def test_triangle_boundary_is_circle(triangle_boundary):
    profile = simplicial_homology(triangle_boundary)
    assert profile.betti == (1, 1)
    assert profile.torsion == ((), ())


def test_two_disjoint_vertices(two_vertices):
    assert simplicial_homology(two_vertices).betti == (2,)


def test_projective_plane_all_coefficient_systems(projective_plane):
    integral = simplicial_homology(projective_plane, "Z")
    assert integral.betti == (1, 0, 0)
    assert integral.torsion == ((), (2,), ())
    rational = simplicial_homology(projective_plane, "Q")
    assert rational.betti == (1, 0, 0)
    assert rational.torsion == ((), (), ())
    mod2 = simplicial_homology(projective_plane, "Z2")
    assert mod2.betti == (1, 1, 1)


@pytest.mark.parametrize("coeffs", ["Z", "Q", "Z2"])
def test_realization_matches_simplicial_oracle(
    coeffs, triangle_boundary, two_vertices, projective_plane
):
    for complex_ in (triangle_boundary, two_vertices, projective_plane):
        cubical = homology(
            induce_complex(simplicial_to_vertexset(complex_)), coeffs
        )
        simplicial = simplicial_homology(complex_, coeffs)
        assert cubical.trimmed() == simplicial.trimmed()


def test_collapse_agrees_with_direct_snf_exhaustively():
    for bits in range(1, 256):
        members = frozenset(i for i in range(8) if (bits >> i) & 1)
        complex_ = induce_complex(VertexSet(3, members))
        for coeffs in ("Z", "Z2"):
            assert homology(complex_, coeffs) == homology(
                complex_, coeffs, reduce=False
            )


def test_collapse_agrees_on_random_larger_sets():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(2, 5)
        density = rng.random()
        members = frozenset(v for v in range(1 << d) if rng.random() < density)
        if not members:
            continue
        complex_ = induce_complex(VertexSet(d, members))
        for coeffs in ("Z", "Q", "Z2"):
            assert homology(complex_, coeffs) == homology(
                complex_, coeffs, reduce=False
            )


def _random_set(d, size, seed):
    rng = np.random.default_rng(seed)
    return induce_complex(
        VertexSet(d, frozenset(int(v) for v in rng.choice(1 << d, size, replace=False)))
    )


def _formula_complex(flavor, trial, dims=(11, 12)):
    params = GeneratorParams(flavor, dims, (3, 8), seed=5)
    return induce_complex(enumerate_solutions(random_formula(params, trial)))


def _wedge_union(d, trial):
    params = GeneratorParams("two_sat", (d, d), (2, 2), seed=5)
    formula = random_formula(params, trial)
    return union_complex(
        induce_complex(enumerate_solutions(Formula(d, (c,)))) for c in formula.clauses()
    )


def _euler(keys, d):
    return sum(-1 if (k >> d).bit_count() % 2 else 1 for k in keys)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_set(10, 800, 0),
        lambda: _random_set(10, 800, 1),
        lambda: _random_set(10, 830, 2),
        lambda: _formula_complex("horn", 2),
        lambda: _formula_complex("dual_horn", 2),
        lambda: _formula_complex("two_sat", 2),
        lambda: _random_set(9, 369, 3),
        lambda: _formula_complex("horn", 1, (7, 7)),
        lambda: _formula_complex("two_sat", 7, (7, 7)),
        lambda: _wedge_union(5, 1),
        lambda: _wedge_union(8, 0),
        lambda: _random_set(12, 2300, 0),
        lambda: induce_complex(affine_solutions(AffineSystem(4, ((0b1111, 0),)))),
        lambda: induce_complex(VertexSet(3, frozenset({5}))),
    ],
    ids=["random-0", "random-1", "random-2", "horn", "dual_horn", "two_sat",
         "random-d9", "horn-d7", "two_sat-d7", "wedge-union-d5", "wedge-union-d8",
         "random-d12", "edge-free", "vertex"],
)
def test_free_pair_collapse_agrees_with_unreduced(make):
    complex_ = make()
    d = complex_.dimension
    keys = complex_.face_keys()
    collapsed = _free_pair_collapse(keys, d).tolist()
    survivors = set(collapsed)
    full = (1 << d) - 1
    for k in collapsed:
        m, b = k >> d, k & full
        cofaces = 0
        for bit in (1 << j for j in range(d)):
            if m & bit:
                sub = (m ^ bit) << d
                assert sub | b in survivors and sub | b | bit in survivors
            else:
                cofaces += (((m | bit) << d) | (b & ~bit)) in survivors
        assert cofaces != 1  # no face is left free
    assert _euler(collapsed, d) == _euler(keys.tolist(), d)
    for coeffs in ("Z", "Z2"):
        assert homology(complex_, coeffs) == homology(complex_, coeffs, reduce=False)


def test_horn_formula_that_stalled_collapses_to_a_point():
    """A d=14 Horn formula (205,683 faces) with a contractible solution
    space; a peel that stopped early left 20,569 faces here."""
    params = GeneratorParams("horn", (13, 14), (5, 9), seed=3)
    complex_ = induce_complex(enumerate_solutions(random_formula(params, 6)))
    start = time.perf_counter()
    assert len(_free_pair_collapse(complex_.face_keys(), complex_.dimension)) == 1
    profile = homology(complex_)
    elapsed = time.perf_counter() - start
    assert profile.betti[0] == 1 and profile.is_trivial_above(1)
    assert elapsed < 10.0, elapsed


def test_full_cube_12_collapses_to_a_point_in_bounded_time():
    complex_ = induce_complex(full_cube(12))
    keys = complex_.face_keys()
    start = time.perf_counter()
    collapsed = _free_pair_collapse(keys, 12)
    elapsed = time.perf_counter() - start
    assert len(collapsed) == 1
    assert elapsed < 5.0, elapsed
    tracemalloc.start()
    try:
        _free_pair_collapse(keys, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * keys.nbytes, peak / keys.nbytes


def test_stars_up_to_the_most_cofaces_collapse_to_their_centre():
    """Vertex 0 with k of its neighbours in d=20 has k live cofaces; at
    k = 20, the most a face can have, the collapse's coface count takes its
    largest value.  With k >= 2 arms the centre is never free, so every
    star collapses to it."""
    d = 20
    for k in range(2, d + 1):
        complex_ = induce_complex(VertexSet(d, frozenset({0} | {1 << j for j in range(k)})))
        assert complex_.f_vector() == (k + 1, k)
        assert _free_pair_collapse(complex_.face_keys(), d).tolist() == [0]


def test_random_d16_collapse_keeps_its_survivors_in_bounded_memory():
    members = np.flatnonzero(np.random.default_rng(1).random(1 << 16) < 0.5)
    keys = induce_complex(VertexSet(16, frozenset(members.tolist()))).face_keys()
    assert len(keys) == 306_081
    tracemalloc.start()
    try:
        collapsed = _free_pair_collapse(keys, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(collapsed) == 224_461
    assert peak <= 16 * keys.nbytes, peak / keys.nbytes


def test_mod2_fast_path_agrees_with_snf_reduced_mod_2():
    rng = random.Random(19)
    for _ in range(25):
        d = rng.randint(2, 4)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.6)
        if not members:
            continue
        complex_ = induce_complex(VertexSet(d, members))
        mod2 = homology(complex_, "Z2")
        top = complex_.top_dimension
        # rank over GF(2) = number of odd invariant factors
        ranks = [0] * (top + 2)
        for p in range(1, top + 1):
            form = smith_normal_form(boundary_matrix(complex_, p))
            ranks[p] = sum(1 for v in form if v % 2 == 1)
        fvec = complex_.f_vector()
        expected = tuple(fvec[p] - ranks[p] - ranks[p + 1] for p in range(top + 1))
        assert mod2.betti == expected


def test_random_d10_set_z_agrees_with_z2_in_bounded_time():
    """A dense random d=10 set (22,718 faces, H_3 of rank 34) that the
    free-pair collapse leaves large; Z elimination must stay fast and agree
    with GF(2) through the universal coefficient theorem."""
    rng = np.random.default_rng(10)
    members = frozenset(int(v) for v in rng.choice(1024, 922, replace=False))
    complex_ = induce_complex(VertexSet(10, members))
    start = time.perf_counter()
    integral = homology(complex_, "Z")
    elapsed = time.perf_counter() - start
    mod2 = homology(complex_, "Z2")
    even = [sum(1 for t in torsion if t % 2 == 0) for torsion in integral.torsion]
    expected = tuple(
        b + even[p] + (even[p - 1] if p else 0) for p, b in enumerate(integral.betti)
    )
    assert mod2.betti == expected
    assert integral.betti == (1, 0, 1, 34, 6, 0, 0)
    assert elapsed < 10.0, elapsed


def test_coefficient_coherence():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(2, 5)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.5)
        if not members:
            continue
        complex_ = induce_complex(VertexSet(d, members))
        integral = homology(complex_, "Z")
        rational = homology(complex_, "Q")
        mod2 = homology(complex_, "Z2")
        assert rational.betti == integral.betti
        for p in range(len(integral.betti)):
            assert rational.betti[p] <= mod2.betti[p]
        if all(not t for t in integral.torsion):
            assert mod2.betti == rational.betti


def test_disjoint_union_is_degreewise_direct_sum(projective_plane, fig1):
    hexagon = enumerate_solutions(fig1)
    plane = simplicial_to_vertexset(projective_plane)
    d1, d2 = hexagon.dimension, plane.dimension
    total = d1 + d2 + 2
    left = frozenset(v | (1 << (total - 2)) for v in hexagon.members)
    right = frozenset((v << d1) | (1 << (total - 1)) for v in plane.members)
    union = induce_complex(VertexSet(total, left | right))
    combined = homology(union)
    part1 = homology(induce_complex(hexagon))
    part2 = homology(induce_complex(plane))
    length = max(len(part1.betti), len(part2.betti))
    for p in range(length):
        b1, t1 = part1.degree(p)
        b2, t2 = part2.degree(p)
        bu, tu = combined.degree(p)
        assert bu == b1 + b2
        assert sorted(tu) == sorted(t1 + t2)


def test_profile_helpers():
    profile = HomologyProfile("Z", (1, 0, 0), ((), (2,), ()))
    assert not profile.is_trivial_above(1)
    assert profile.is_trivial_above(2)
    assert profile.trimmed().betti == (1, 0)
    assert profile.to_json_dict() == {
        "coeffs": "Z",
        "betti": [1, 0, 0],
        "torsion": [[], [2], []],
    }

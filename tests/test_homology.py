import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csptopo import (
    HomologyProfile,
    IntegerMatrix,
    VertexSet,
    boundary_matrix,
    enumerate_solutions,
    full_cube,
    gf2_rank,
    homology,
    induce_complex,
    simplicial_homology,
    simplicial_to_vertexset,
    smith_normal_form,
)
from csptopo.homology import _snf_diagonal


def test_snf_identity():
    assert smith_normal_form(IntegerMatrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )).diagonal == (1, 1, 1)


def test_snf_already_diagonal():
    form = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 2]]))
    assert form.diagonal == (2, 2)
    assert form.rank == 2


def test_snf_hand_elimination_example():
    # det = -2, gcd of entries 1, so the chain is (1, 2)
    form = smith_normal_form(IntegerMatrix.from_rows([[1, 1], [1, -1]]))
    assert form.diagonal == (1, 2)


def test_snf_zero_and_rectangular():
    assert smith_normal_form(IntegerMatrix(2, 3)).diagonal == (0, 0)
    form = smith_normal_form(IntegerMatrix.from_rows([[0, 4, 0], [6, 0, 0]]))
    assert form.diagonal == (2, 12)


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
    matrix = IntegerMatrix.from_rows(entries)
    form = smith_normal_form(matrix)
    dense_diag = tuple(_snf_diagonal([r[:] for r in entries], rows, cols))
    assert form.diagonal == dense_diag
    for a, b in zip(form.diagonal, form.diagonal[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert form.rank <= min(rows, cols)


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
            ranks[p] = sum(1 for v in form.diagonal if v % 2 == 1)
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

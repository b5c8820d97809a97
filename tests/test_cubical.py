import itertools
import random

import numpy as np
import pytest

from csptopo import (
    PreconditionError,
    ResourceLimitError,
    VertexSet,
    boundary_columns,
    emit_complex,
    enumerate_solutions,
    full_cube,
    induce_complex,
    skeleton_components,
    union_complex,
)

from oracles import boundary_matrix, naive_faces, smith_normal_form


def test_fig1_is_a_hexagon(fig1):
    complex_ = induce_complex(enumerate_solutions(fig1))
    assert complex_.f_vector() == (6, 6)
    assert skeleton_components(complex_)[0] == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_full_cube_face_counts(d):
    complex_ = induce_complex(full_cube(d))
    expected = tuple(
        (1 << (d - p)) * len(list(itertools.combinations(range(d), p)))
        for p in range(d + 1)
    )
    assert complex_.f_vector() == expected


def test_antipodal_vertices_share_no_edge():
    complex_ = induce_complex(VertexSet(2, frozenset({0, 3})))
    assert complex_.f_vector() == (2,)
    assert skeleton_components(complex_)[0] == 2


def test_empty_complex():
    complex_ = induce_complex(VertexSet(2, frozenset()))
    assert complex_.f_vector() == ()
    assert skeleton_components(complex_) == (0, {})


def test_face_budget_enforced():
    with pytest.raises(ResourceLimitError):
        induce_complex(full_cube(4), face_max=10)


def test_single_edge_boundary_matrix():
    complex_ = induce_complex(full_cube(1))
    # vertices sorted (0, 1): +1 at vertex 1, -1 at vertex 0
    assert boundary_columns(complex_, 1) == [[(1, 1), (0, -1)]]
    assert boundary_matrix(complex_, 1) == [[-1], [1]]


def test_full_square_dd_zero():
    complex_ = induce_complex(full_cube(2))
    product = np.array(boundary_matrix(complex_, 1)) @ np.array(boundary_matrix(complex_, 2))
    assert not product.any()


def test_hexagon_boundary_rank(fig1):
    complex_ = induce_complex(enumerate_solutions(fig1))
    matrix = boundary_matrix(complex_, 1)
    assert (len(matrix), len(matrix[0])) == (6, 6)
    assert smith_normal_form(matrix) == (1, 1, 1, 1, 1, 0)


def test_boundary_degree_range(fig1):
    complex_ = induce_complex(enumerate_solutions(fig1))
    with pytest.raises(PreconditionError):
        boundary_columns(complex_, 2)
    with pytest.raises(PreconditionError):
        boundary_columns(complex_, 0)


def test_boundary_columns_agree_with_dense():
    """The sparse columns equal the dense oracle, which is built from
    ``Face`` pairs with the (-1)^(t-1) rule and shares no code with them."""
    rng = random.Random(3)
    complexes = [induce_complex(full_cube(3))]
    for _ in range(20):
        d = rng.randint(1, 5)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.8)
        complexes.append(induce_complex(VertexSet(d, members)))
    for complex_ in complexes:
        for p in range(1, complex_.top_dimension + 1):
            dense = boundary_matrix(complex_, p)
            columns = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*dense)]
            assert [sorted(col) for col in boundary_columns(complex_, p)] == columns


def test_dd_zero_random_complexes():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(2, 5)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.7)
        complex_ = induce_complex(VertexSet(d, members))
        for p in range(2, complex_.top_dimension + 1):
            lower, upper = boundary_matrix(complex_, p - 1), boundary_matrix(complex_, p)
            assert not (np.array(lower) @ np.array(upper)).any()


# Equality with the brute-force face set also proves closure under facets:
# every vertex of a facet is a vertex of the face.

def test_closure_and_induced_maximality_exhaustively():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 4)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.6)
        complex_ = induce_complex(VertexSet(d, members))
        assert {f for level in complex_.faces for f in level} == naive_faces(members, d)
        assert all(f.dim == p for p, level in enumerate(complex_.faces) for f in level)


def test_closure_audit_dimension_six():
    rng = random.Random(17)
    members = frozenset(v for v in range(64) if rng.random() < 0.85)
    complex_ = induce_complex(VertexSet(6, members))
    assert {f for level in complex_.faces for f in level} == naive_faces(members, 6)


@pytest.mark.parametrize("d", [10, 11])
def test_induce_grows_grades_across_several_slices(d):
    """Grades above 1,024 faces are grown in more than one slice."""
    rng = random.Random(d)
    members = frozenset(v for v in range(1 << d) if rng.random() < 0.8)
    complex_ = induce_complex(VertexSet(d, members))
    assert max(complex_.f_vector()) > 1024
    for level in complex_.levels:
        assert level.dtype == np.int64 and not level.flags.writeable
        assert (np.diff(level) > 0).all()
    assert {f for level in complex_.faces for f in level} == naive_faces(members, d)


def test_union_complex_is_union_of_faces():
    left = induce_complex(VertexSet(2, frozenset({0, 1})))
    right = induce_complex(VertexSet(2, frozenset({1, 3})))
    assert union_complex([left, right]).f_vector() == (3, 2)
    rng = random.Random(29)
    for trial in range(30):
        d = rng.randint(2, 6)
        parts = [induce_complex(VertexSet(d, frozenset()))] if trial == 0 else []
        for density in rng.choices((0.3, 0.6, 0.9), k=rng.randint(2, 4) - len(parts)):
            members = frozenset(v for v in range(1 << d) if rng.random() < density)
            parts.append(induce_complex(VertexSet(d, members)))
        union = union_complex(parts)
        assert union.generator is None and all(union.f_vector())
        assert union.top_dimension == max(part.top_dimension for part in parts)
        for p, level in enumerate(union.faces):
            inputs = [part.faces[p] for part in parts if p <= part.top_dimension]
            assert list(level) == sorted(set().union(*inputs))
    with pytest.raises(PreconditionError):
        union_complex([])


def test_complexes_are_immutable_values():
    members = frozenset({0, 1, 3, 5, 7})
    first = induce_complex(VertexSet(3, members))
    second = induce_complex(VertexSet(3, frozenset(sorted(members))))
    assert first == second and hash(first) == hash(second)
    assert first != induce_complex(VertexSet(3, members - {7}))
    assert first != induce_complex(VertexSet(4, members))
    assert union_complex([first]) != first  # no generator
    for level in first.levels:
        with pytest.raises(ValueError):
            level[0] = 0


def test_emit_complex_golden():
    complex_ = induce_complex(VertexSet(2, frozenset({0, 1})))
    assert emit_complex(complex_) == "cube 2\nf 00 00\nf 00 10\nf 10 00\n"

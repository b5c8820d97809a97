"""Heavier independent cross-checks of the homology engine.

Two routes that share no code with the cubical pipeline:

* sympy's exact Smith normal form / rank as an external oracle for the
  in-repo implementation, and
* the order complex of a cubical complex's face poset (its barycentric
  subdivision, a simplicial complex homeomorphic to the same space),
  pushed through the simplicial oracle.
"""

import importlib
import random

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from csptopo import (
    CubicalComplex,
    Face,
    SimplicialComplex,
    VertexSet,
    enumerate_solutions,
    homology,
    induce_complex,
    simplicial_homology,
    simplicial_to_vertexset,
)

from oracles import boundary_matrix, smith_normal_form


def _sympy_diagonal(rows):
    matrix = Matrix(rows)
    normal = sympy_snf(matrix, domain=ZZ)
    size = min(matrix.rows, matrix.cols)
    diagonal = sorted((abs(normal[i, i]) for i in range(size)), key=lambda v: (v == 0, v))
    return tuple(diagonal)


def _assert_snf_matches_sympy(data):
    ours = smith_normal_form(data)
    assert ours == _sympy_diagonal(data), data
    assert sum(1 for v in ours if v) == Matrix(data).rank()


def test_snf_matches_sympy_on_random_matrices():
    rng = random.Random(101)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _assert_snf_matches_sympy(data)


def test_snf_matches_sympy_on_larger_sparse_matrices():
    rng = random.Random(107)
    for _ in range(60):
        rows = rng.randint(1, 15)
        cols = rng.randint(1, 15)
        data = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < 0.25 else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        _assert_snf_matches_sympy(data)


def test_unit_created_by_fill_in_is_pivoted_sparsely(monkeypatch):
    """Column 0 (entries 2, 3) has no unit entry, so the heap drops it.
    Pivoting on column 1 turns its 3 into 3 - 2 = 1; the column must be
    pushed again and pivoted, so the dense routine sees only the 2."""
    # the package attribute ``csptopo.homology`` is the function
    homology_module = importlib.import_module("csptopo.homology")
    dense = homology_module._snf_diagonal
    remainders = []

    def recording_dense(data, rows, cols):
        remainders.append([row[:] for row in data])
        return dense(data, rows, cols)

    monkeypatch.setattr(homology_module, "_snf_diagonal", recording_dense)
    data = [[2, 1, 0], [3, 1, 0], [0, 1, 2]]
    ours = smith_normal_form(data)
    assert remainders == [[[2]]]
    assert ours == (1, 1, 2) == _sympy_diagonal(data)


def test_boundary_snf_matches_sympy(fig1, projective_plane):
    complexes = [
        induce_complex(enumerate_solutions(fig1)),
        induce_complex(simplicial_to_vertexset(projective_plane)),
    ]
    for complex_ in complexes:
        for p in range(1, complex_.top_dimension + 1):
            matrix = boundary_matrix(complex_, p)
            assert smith_normal_form(matrix) == _sympy_diagonal(matrix)


def _order_complex(complex_: CubicalComplex) -> SimplicialComplex:
    """Barycentric subdivision: one vertex per face, facets are the
    maximal chains of the face poset."""
    faces = [f for level in complex_.faces for f in level]
    index = {f: i + 1 for i, f in enumerate(faces)}
    cofaces = {f: [] for f in faces}
    facets_of = {f: [] for f in faces}
    for p in range(1, complex_.top_dimension + 1):
        for g in complex_.faces[p]:
            for j in range(complex_.dimension):
                if (g.free_mask >> j) & 1:
                    sub = g.free_mask ^ (1 << j)
                    for base in (g.base, g.base | (1 << j)):
                        f = Face(sub, base)
                        cofaces[f].append(g)
                        facets_of[g].append(f)

    chains = []

    def descend(chain, face):
        if face.dim == 0:
            chains.append(tuple(sorted(index[f] for f in chain)))
            return
        for sub in facets_of[face]:
            descend(chain + [sub], sub)

    for f in faces:
        if not cofaces[f]:  # maximal faces seed the maximal chains
            descend([f], f)
    return SimplicialComplex.of(len(faces), chains)


def _assert_subdivision_invariance(complex_: CubicalComplex):
    subdivision = _order_complex(complex_)
    for coeffs in ("Z", "Q", "Z2"):
        cubical = homology(complex_, coeffs).trimmed()
        simplicial = simplicial_homology(subdivision, coeffs).trimmed()
        assert cubical == simplicial, (coeffs, cubical, simplicial)


def test_subdivision_invariance_hexagon(fig1):
    _assert_subdivision_invariance(induce_complex(enumerate_solutions(fig1)))


def test_subdivision_invariance_projective_plane(projective_plane):
    realized = induce_complex(simplicial_to_vertexset(projective_plane))
    _assert_subdivision_invariance(realized)


def test_subdivision_invariance_random_sets():
    rng = random.Random(103)
    for _ in range(20):
        d = rng.randint(2, 4)
        members = frozenset(v for v in range(1 << d) if rng.random() < 0.6)
        if not members:
            continue
        _assert_subdivision_invariance(induce_complex(VertexSet(d, members)))


def _product_vertexset(left: VertexSet, right: VertexSet) -> VertexSet:
    members = frozenset(
        a | (b << left.dimension) for a in left.members for b in right.members
    )
    return VertexSet(left.dimension + right.dimension, members)


def test_torus_from_product_of_circles(fig1):
    """The product of two hexagonal solution spaces is a torus:
    betti (1, 2, 1) and no torsion."""
    circle = enumerate_solutions(fig1)
    torus = induce_complex(_product_vertexset(circle, circle))
    assert torus.f_vector() == (36, 72, 36)
    profile = homology(torus)
    assert profile.betti == (1, 2, 1)
    assert all(not t for t in profile.torsion)
    mod2 = homology(torus, "Z2")
    assert mod2.betti == (1, 2, 1)
    _assert_subdivision_invariance(torus)


def test_torus_times_circle(fig1):
    """Three-fold product: betti (1, 3, 3, 1)."""
    circle = enumerate_solutions(fig1)
    three = _product_vertexset(_product_vertexset(circle, circle), circle)
    profile = homology(induce_complex(three))
    assert profile.betti == (1, 3, 3, 1)

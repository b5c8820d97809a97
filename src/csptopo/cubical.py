"""Induced cubical complexes of vertex sets in the unit cube.

A face of [0,1]^d is a pair (free_mask, base): free coordinates vary over
the face, fixed coordinates take the values recorded in ``base`` (which is
zero on free coordinates).  The complex induced by a vertex set V consists
of every face all of whose vertices lie in V; it is graded by dimension
and closed under subfaces.

The one stored encoding of a face is its packed key
``(free_mask << d) | base``: each grade of a ``CubicalComplex`` is a
sorted, read-only int64 key array, which every library path reads.
``CubicalComplex.faces`` is a derived view that builds ``Face`` pairs, in
the same order, for the public API and tests.

Faces are found by breadth-first growth: a p-face exists exactly when its
two opposite (p-1)-faces obtained by fixing the highest free coordinate
both exist, so each grade is built by merging parallel faces of the grade
below.  This touches only faces that are actually present instead of the
3^d candidates of the ambient cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .bits import index_to_bits
from .errors import PreconditionError, ResourceLimitError
from .solution_space import VertexSet

FACE_MAX = 5_000_000


class Face(NamedTuple):
    free_mask: int
    base: int

    @property
    def dim(self) -> int:
        return self.free_mask.bit_count()


@dataclass(frozen=True, eq=False)
class CubicalComplex:
    """Graded faces as sorted, read-only int64 key arrays, one per
    dimension; ``generator`` is the inducing vertex set, or None for
    complexes assembled as unions of induced complexes.  Compared and
    hashed by value."""

    dimension: int
    levels: tuple[np.ndarray, ...]
    generator: VertexSet | None = None

    def __post_init__(self):
        for level in self.levels:
            level.flags.writeable = False

    def _value(self):
        return self.dimension, self.generator, tuple(level.tobytes() for level in self.levels)

    def __eq__(self, other):
        if not isinstance(other, CubicalComplex):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    @property
    def faces(self) -> tuple[tuple[Face, ...], ...]:
        """The grades as ``Face`` tuples, built on each access."""
        d = self.dimension
        low = (1 << d) - 1
        return tuple(
            tuple(Face(k >> d, k & low) for k in level.tolist()) for level in self.levels
        )

    @property
    def top_dimension(self) -> int:
        return len(self.levels) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def face_count(self) -> int:
        return sum(self.f_vector())

    def vertices(self) -> tuple[int, ...]:
        return tuple(self.levels[0].tolist()) if self.levels else ()

    def face_keys(self) -> np.ndarray:
        """All faces packed as (free_mask << dimension) | base, grade by grade."""
        return np.concatenate(self.levels or (np.empty(0, dtype=np.int64),))


def _grow_level(keys: np.ndarray, d: int) -> np.ndarray:
    """Merge parallel faces of one grade into the faces of the next."""
    if len(keys) < 2:
        return np.empty(0, dtype=np.int64)
    mask = keys >> d
    base = keys & ((1 << d) - 1)
    pieces = []
    for j in range(d):
        bit = 1 << j
        # j must dominate all free coordinates and be fixed to 0 here
        sel = (mask >> j == 0) & ((base >> j) & 1 == 0)
        if not sel.any():
            continue
        partner = keys[sel] + bit
        pos = np.searchsorted(keys, partner)
        pos[pos >= len(keys)] = len(keys) - 1
        found = keys[pos] == partner
        if not found.any():
            continue
        merged = (((mask[sel][found] | bit) << d) | base[sel][found]).astype(np.int64)
        pieces.append(merged)
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(pieces))


def induce_complex(vset: VertexSet, face_max: int = FACE_MAX) -> CubicalComplex:
    """Build the induced cubical complex of a vertex set."""
    d = vset.dimension
    levels = []
    level = np.array(vset.sorted_members(), dtype=np.int64)
    total = 0
    while len(level):
        total += len(level)
        if total > face_max:
            raise ResourceLimitError(f"face budget {face_max} exceeded")
        levels.append(level)
        level = _grow_level(level, d)
    return CubicalComplex(d, tuple(levels), vset)


def union_complex(complexes) -> CubicalComplex:
    """Union of cubical complexes over the same ambient cube.

    The union of complexes is again a complex but is generally not induced
    by any vertex set, so the result carries no generator.
    """
    complexes = list(complexes)
    if not complexes:
        raise PreconditionError("union of zero complexes")
    d = complexes[0].dimension
    if any(k.dimension != d for k in complexes):
        raise PreconditionError("dimension mismatch in union")
    top = max(k.top_dimension for k in complexes)
    levels = tuple(
        reduce(np.union1d, [k.levels[p] for k in complexes if p <= k.top_dimension])
        for p in range(top + 1)
    )
    return CubicalComplex(d, levels, None)


def _cubical_columns(lower: list[int], upper: list[int], d: int):
    """Sparse boundary columns between two consecutive grades of keys.

    For a face with free coordinates j_1 < ... < j_p the boundary is the
    alternating sum over t of (face with j_t fixed to 1) minus (face with
    j_t fixed to 0), with sign (-1)^(t-1).  Each column lists (row, sign)
    pairs, rows indexing ``lower``.
    """
    row_of = {k: i for i, k in enumerate(lower)}
    full = (1 << d) - 1
    columns = []
    for k in upper:
        m = k >> d
        b = k & full
        col = []
        sign = 1
        free = m
        while free:
            low = free & -free
            sub = (m ^ low) << d
            col.append((row_of[sub | b | low], sign))
            col.append((row_of[sub | (b & ~low)], -sign))
            sign = -sign
            free ^= low
        columns.append(col)
    return columns


def boundary_columns(
    complex_: CubicalComplex, p: int
) -> list[list[tuple[int, int]]]:
    """Sparse boundary operator d_p: one (row, sign) list per p-face, rows
    indexing the (p-1)-faces in key order."""
    if not 1 <= p <= complex_.top_dimension:
        raise PreconditionError(f"boundary degree {p} out of range")
    lower, upper = complex_.levels[p - 1], complex_.levels[p]
    return _cubical_columns(lower.tolist(), upper.tolist(), complex_.dimension)


def skeleton_components(complex_: CubicalComplex) -> tuple[int, dict[int, int]]:
    """Connected components of the 1-skeleton.

    Returns (count, labels) where labels maps each vertex index to a
    component id; ids are assigned in order of smallest member vertex.
    """
    if not complex_.levels:
        return 0, {}
    parent: dict[int, int] = {v: v for v in complex_.vertices()}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    if complex_.top_dimension >= 1:
        d = complex_.dimension
        edges = complex_.levels[1]
        low = edges & ((1 << d) - 1)
        for a, b in zip(low.tolist(), (low | (edges >> d)).tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    labels: dict[int, int] = {}
    next_id = 0
    for v in sorted(parent):
        root = find(v)
        if root not in labels:
            labels[root] = next_id
            next_id += 1
    return next_id, {v: labels[find(v)] for v in parent}


def emit_complex(complex_: CubicalComplex) -> str:
    """Dump format used by golden tests: header plus one face per line."""
    d = complex_.dimension
    low = (1 << d) - 1
    lines = [f"cube {d}"]
    for k in complex_.face_keys().tolist():
        lines.append(f"f {index_to_bits(k >> d, d)} {index_to_bits(k & low, d)}")
    return "\n".join(lines) + "\n"

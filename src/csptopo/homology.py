"""Integer, rational and mod-2 homology of cubical and simplicial complexes.

Betti numbers in degree p are f_p - rank(d_p) - rank(d_{p+1}) over the
chosen coefficients; integer torsion consists of the invariant factors
greater than one of d_{p+1}.  Ranks and invariant factors come from an
exact Smith normal form in arbitrary precision: a sparse elimination takes
every +-1 pivot it can reach, in the order of a lazy heap of short columns,
and only the remainder without unit entries goes through a dense
smallest-magnitude-pivot routine.  The mod-2 path uses direct bitset
elimination over GF(2).

Before any matrix work, cubical complexes are shrunk by free-pair
collapses until no face is free: a face contained in exactly one face of
the next dimension is removed together with that coface.  Each such step
is an elementary collapse, so the reduced complex is homotopy equivalent
to the input and has identical homology in every degree.  The collapse
runs in vectorized frontier rounds of disjoint pairs.  On the solution
spaces of 2-SAT, Horn and dual-Horn formulas, whose components are
contractible, the collapse typically leaves one vertex per component.
The simplicial route deliberately skips this reduction so that it stays
an independent oracle for the cubical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import TYPE_CHECKING

import numpy as np

from .bits import gf2_rank
from .cubical import CubicalComplex, _cubical_columns, _sorted_unique
from .errors import PreconditionError

if TYPE_CHECKING:  # pragma: no cover
    from .constructions import SimplicialComplex

COEFF_Z = "Z"
COEFF_Q = "Q"
COEFF_Z2 = "Z2"
COEFFICIENTS = (COEFF_Z, COEFF_Q, COEFF_Z2)


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree Betti numbers and torsion coefficients."""

    coeffs: str
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.betti) != len(self.torsion):
            raise ValueError("betti/torsion length mismatch")

    def degree(self, p: int) -> tuple[int, tuple[int, ...]]:
        if p < len(self.betti):
            return self.betti[p], self.torsion[p]
        return 0, ()

    def is_trivial_above(self, n: int) -> bool:
        """True when H_p vanishes for every p >= n."""
        return all(b == 0 for b in self.betti[n:]) and all(
            not t for t in self.torsion[n:]
        )

    def trimmed(self) -> "HomologyProfile":
        """Drop trailing trivial degrees; complexes of different ambient
        dimension are compared through this."""
        end = len(self.betti)
        while end > 0 and self.betti[end - 1] == 0 and not self.torsion[end - 1]:
            end -= 1
        return HomologyProfile(self.coeffs, self.betti[:end], self.torsion[:end])

    def to_json_dict(self) -> dict:
        return {
            "coeffs": self.coeffs,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }


# Smith normal form.

def _snf_diagonal(data: list[list[int]], rows: int, cols: int) -> list[int]:
    """Invariant factors of an integer matrix (destructive on ``data``)."""
    a = data
    size = min(rows, cols)
    diag: list[int] = []
    t = 0
    while t < size:
        # smallest-magnitude nonzero pivot in the trailing submatrix
        best = None
        bi = bj = -1
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, bi, bj = av, i, j
                        if av == 1:
                            break
            if best == 1:
                break
        if best is None:
            break
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]

        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            pivot_row = a[t]

            dirty = False
            for i in range(t + 1, rows):
                v = a[i][t]
                if v:
                    q = v // p
                    if q:
                        row = a[i]
                        for j in range(t, cols):
                            row[j] -= q * pivot_row[j]
                    if a[i][t]:
                        dirty = True
            if not dirty:
                for j in range(t + 1, cols):
                    v = pivot_row[j]
                    if v:
                        q = v // p
                        if q:
                            for i in range(t, rows):
                                a[i][j] -= q * a[i][t]
                        if pivot_row[j]:
                            dirty = True
            if dirty:
                # a remainder smaller than the pivot appeared; re-select
                best = None
                for i in range(t, rows):
                    row = a[i]
                    for j in range(t, cols):
                        v = row[j]
                        if v:
                            av = -v if v < 0 else v
                            if best is None or av < best:
                                best, bi, bj = av, i, j
                if bi != t:
                    a[t], a[bi] = a[bi], a[t]
                if bj != t:
                    for row in a:
                        row[t], row[bj] = row[bj], row[t]
                continue

            # row and column are clean; force the divisibility chain
            bad = -1
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % p:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad >= 0:
                a[t] = [x + y for x, y in zip(a[t], a[bad])]
                continue
            diag.append(p)
            t += 1
            break

    # defensive normalization; the construction already yields a chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return diag + [0] * (size - len(diag))


def _sparse_invariant_factors(columns, nrows: int) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix.

    ``columns[j]`` lists (row, value) entries.  Entries of magnitude one
    are eliminated first: each such pivot is a unimodular reduction that
    contributes an invariant factor 1 and leaves the integer Schur
    complement.  Pivots come from a lazy min-heap of (column length,
    column): the shortest live column is popped, and its +-1 entry in the
    shortest row becomes the pivot, which keeps fill-in low.  An entry
    whose column is gone or has changed length is stale and skipped; a
    column without a unit entry is dropped until a later pivot touches it.
    After a pivot only the touched columns, the keys of the pivot row, are
    pushed again, so every pop is a pivot or a discard and the pops number
    at most the columns plus the summed pivot-row lengths.  The usually
    tiny remainder without unit entries goes through the dense routine.
    Boundary matrices, whose entries all start at +-1, mostly never reach
    the dense phase.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for j, column in enumerate(columns):
        for i, v in column:
            if v:
                cols.setdefault(j, {})[i] = v
                rows.setdefault(i, {})[j] = v

    heap = [(len(colmap), j) for j, colmap in cols.items()]
    heapify(heap)
    unit_rank = 0
    while heap:
        length, pj = heappop(heap)
        pcol = cols.get(pj)
        if pcol is None or len(pcol) != length:
            continue
        best = pi = pv = 0
        for i, v in pcol.items():
            if v == 1 or v == -1:
                row_length = len(rows[i])
                if not best or row_length < best:
                    best, pi, pv = row_length, i, v
                    if row_length == 1:
                        break
        if not best:
            continue

        prow = rows.pop(pi)
        del cols[pj]
        del prow[pj]
        del pcol[pi]
        for j2 in prow:
            del cols[j2][pi]
        for i2 in pcol:
            del rows[i2][pj]
        for i2, b in pcol.items():
            coeff = -b * pv
            row2 = rows[i2]
            for j2, a in prow.items():
                value = row2.get(j2, 0) + coeff * a
                if value:
                    row2[j2] = value
                    cols[j2][i2] = value
                elif j2 in row2:
                    del row2[j2]
                    del cols[j2][i2]
        for j2 in prow:
            heappush(heap, (len(cols[j2]), j2))
        unit_rank += 1

    live_rows = sorted(i for i, entries in rows.items() if entries)
    live_cols = sorted(j for j, entries in cols.items() if entries)
    factors = [1] * unit_rank
    if live_rows:
        row_index = {i: k for k, i in enumerate(live_rows)}
        col_index = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i in live_rows:
            for j, v in rows[i].items():
                dense[row_index[i]][col_index[j]] = v
        diag = _snf_diagonal(dense, len(live_rows), len(live_cols))
        factors.extend(v for v in diag if v)
    return factors


# Free-pair collapse on packed cubical face keys.

def _live_cofaces(arr, alive, keys, bits, up):
    """Where the cofaces of ``keys`` sit in the sorted key array ``arr``.

    Returns two (d, len(keys)) arrays: ``pos[j, i]`` is the position in
    ``arr`` of key i with coordinate j freed, ``(k | bit_j << d) & ~bit_j``,
    and ``live[j, i]`` says whether that face is there and alive.  A free
    coordinate j leaves the key unchanged and is never live.
    """
    cand = (keys | up) & ~bits
    pos = arr.searchsorted(cand)
    np.minimum(pos, len(arr) - 1, out=pos)
    return pos, (arr[pos] == cand) & alive[pos] & (cand != keys)


def _facets(keys, bits, up):
    """Both facets across each free coordinate of each key, with repeats."""
    free = (keys & up) != 0
    return np.concatenate([(keys ^ up)[free], (keys ^ up ^ bits)[free]])


def _free_pair_collapse(keys: np.ndarray, d: int) -> np.ndarray:
    """Remove (free face, its unique coface) pairs until no face is free.

    A face is free when exactly one face of the next dimension contains it.
    Removing it with that coface is an elementary collapse, so the result
    is a downward-closed subcomplex homotopy equivalent to the input.

    The collapse runs in frontier rounds on the sorted key array, with an
    ``alive`` mask and the number of live cofaces of every face.  Each
    round, every face of the frontier (the alive faces with one live
    coface) finds that coface, a coface claimed by several free faces keeps
    only its first pair, and all pairs are removed at once.  In a
    downward-closed complex a free face is never the coface of another free
    face (the two faces between it and the coface's coface would both
    contain it), so after the shared cofaces are resolved the pairs of one
    round are disjoint and removing them is a chain of elementary
    collapses.  The facets of the removed faces lose one coface each, and
    those left alive with one coface form the next frontier.

    Coface and facet lookups treat all d coordinates at once as rows of a
    (d, m) array.  Faces go through them in slices of ``max(n // d, 1024)``
    so that no temporary holds much more than n keys.  The collapse is
    deterministic and returns the surviving keys sorted.
    """
    if not len(keys):
        return keys
    arr = np.sort(keys)
    n = len(arr)
    bits = np.int64(1) << np.arange(d, dtype=np.int64)[:, None]
    up = bits << d
    step = max(n // d, 1024)
    alive = np.ones(n, dtype=bool)
    counts = np.empty(n, dtype=np.int64)
    for s in range(0, n, step):
        _, live = _live_cofaces(arr, alive, arr[s : s + step], bits, up)
        counts[s : s + step] = live.sum(axis=0)
    frontier = np.flatnonzero(counts == 1)
    while len(frontier):
        coface = np.empty(len(frontier), dtype=np.int64)
        for s in range(0, len(frontier), step):
            pos, live = _live_cofaces(arr, alive, arr[frontier[s : s + step]], bits, up)
            coface[s : s + step] = (pos * live).sum(axis=0)  # one live coface each
        cofaces, first = np.unique(coface, return_index=True)
        removed = np.concatenate([frontier[first], cofaces])
        alive[removed] = False
        # a face has its final count after the last slice that touches it
        touched = []
        for s in range(0, len(removed), step):
            hit = arr.searchsorted(_facets(arr[removed[s : s + step]], bits, up))
            np.subtract.at(counts, hit, 1)
            touched.append(hit[alive[hit] & (counts[hit] == 1)])
        touched = np.concatenate(touched)
        frontier = _sorted_unique(touched[counts[touched] == 1])
    return arr[alive]


def _graded_keys(keys: np.ndarray, d: int) -> list[list[int]]:
    """Split face keys, sorted within each grade, into one list per grade."""
    levels: list[list[int]] = []
    for k in keys.tolist():
        p = (k >> d).bit_count()
        while len(levels) <= p:
            levels.append([])
        levels[p].append(k)
    return levels


def _profile_from_columns(fvec, column_maker, coeffs, length) -> HomologyProfile:
    """Assemble a profile given per-degree sparse boundary columns.

    ``column_maker(p)`` returns the columns of d_p for 1 <= p <= top.
    ``length`` pads the profile to the ambient complex's top dimension + 1.
    """
    top = len(fvec) - 1
    ranks = [0] * (top + 2)
    factors: list[tuple[int, ...]] = [()] * (top + 2)
    for p in range(1, top + 1):
        columns = column_maker(p)
        if coeffs == COEFF_Z2:
            ranks[p] = gf2_rank(
                sum(1 << i for i, _ in col) for col in columns
            )
        else:
            invariants = _sparse_invariant_factors(columns, fvec[p - 1])
            ranks[p] = len(invariants)
            factors[p] = tuple(v for v in invariants if v > 1)

    betti = []
    torsion = []
    for p in range(length):
        if p <= top:
            betti.append(fvec[p] - ranks[p] - ranks[p + 1])
        else:
            betti.append(0)
        torsion.append(factors[p + 1] if (coeffs == COEFF_Z and p + 1 <= top) else ())
    return HomologyProfile(coeffs, tuple(betti), tuple(torsion))


def homology(
    complex_: CubicalComplex, coeffs: str = COEFF_Z, reduce: bool = True
) -> HomologyProfile:
    """Homology profile of a cubical complex.

    ``reduce=False`` skips the collapse stage and runs the matrices of the
    complex as given (used for cross-checking the reduction).
    """
    if coeffs not in COEFFICIENTS:
        raise PreconditionError(f"unknown coefficient system {coeffs!r}")
    top = complex_.top_dimension
    if top < 0:
        return HomologyProfile(coeffs, (), ())
    d = complex_.dimension
    keys = complex_.face_keys()
    if reduce:
        keys = _free_pair_collapse(keys, d)
    levels = _graded_keys(keys, d)
    fvec = [len(level) for level in levels]
    return _profile_from_columns(
        fvec,
        lambda p: _cubical_columns(levels[p - 1], levels[p], d),
        coeffs,
        top + 1,
    )


def _simplex_columns(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]):
    row_of = {s: i for i, s in enumerate(lower)}
    columns = []
    for simplex in upper:
        col = []
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            col.append((row_of[face], 1 if i % 2 == 0 else -1))
        columns.append(col)
    return columns


def simplicial_homology(complex_: "SimplicialComplex", coeffs: str = COEFF_Z) -> HomologyProfile:
    """Homology of a simplicial complex via plain boundary matrices.

    Used as the independent oracle for the cubical pipeline; no reduction
    is applied.
    """
    if coeffs not in COEFFICIENTS:
        raise PreconditionError(f"unknown coefficient system {coeffs!r}")
    levels = complex_.graded_faces()
    if not levels:
        return HomologyProfile(coeffs, (), ())
    fvec = [len(level) for level in levels]
    return _profile_from_columns(
        fvec,
        lambda p: _simplex_columns(levels[p - 1], levels[p]),
        coeffs,
        len(levels),
    )

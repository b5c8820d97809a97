"""Integer, rational and mod-2 homology of cubical and simplicial complexes.

Betti numbers in degree p are f_p - rank(d_p) - rank(d_{p+1}) over the
chosen coefficients; integer torsion consists of the invariant factors
greater than one of d_{p+1}.  Ranks and invariant factors come from an
exact Smith normal form in arbitrary precision: one sparse elimination
takes every +-1 pivot it can reach, in the order of a lazy heap of short
columns, and then pivots the remainder without unit entries on entries of
least magnitude, on the same sparse rows and columns.  The mod-2 path uses
direct bitset elimination over GF(2).

Before any matrix work, cubical complexes are shrunk by free-pair
collapses until no face is free: a face contained in exactly one face of
the next dimension is removed together with that coface.  Each such step
is an elementary collapse, so the reduced complex is homotopy equivalent
to the input and has identical homology in every degree.  The collapse
runs in vectorized frontier rounds of disjoint pairs.  It never searches
for a coface: each face keeps the count of its live cofaces and the sum
of their positions in one int64, filled and updated from the facet side,
so a face with one live coface reads that coface's position.  On the
solution spaces of 2-SAT, Horn and dual-Horn formulas, whose components
are contractible, the collapse typically leaves one vertex per component.
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

def _subtract_multiples(rows, cols, prow: dict[int, int], targets, p: int) -> None:
    """Row operations: each row i2 with an entry v in ``targets`` loses
    (v // p) times ``prow``.  ``cols`` is kept the transpose of ``rows``;
    with the two swapped these are column operations.  The pivot p is of
    least magnitude, so no quotient is zero."""
    for i2, v in targets.items():
        q = v // p
        row2 = rows[i2]
        for j2, a in prow.items():
            value = row2.get(j2, 0) - q * a
            if value:
                row2[j2] = value
                cols[j2][i2] = value
            else:
                del row2[j2]
                del cols[j2][i2]


def _eliminate(rows, cols, pi: int, pj: int) -> dict[int, int]:
    """Pivot on (pi, pj), whose entry p divides its whole row and column.

    Row pi and column pj are dropped, and every other row i2 with an entry
    b in column pj loses (b // p) times row pi: the integer Schur
    complement.  Returns row pi without the pivot.
    """
    prow = rows.pop(pi)
    pcol = cols.pop(pj)
    p = prow.pop(pj)
    del pcol[pi]
    for j2 in prow:
        del cols[j2][pi]
    for i2 in pcol:
        del rows[i2][pj]
    _subtract_multiples(rows, cols, prow, pcol, p)
    return prow


def _reduce(rows, cols, pi: int, pj: int) -> bool:
    """Reduce column pj by row operations against the pivot at (pi, pj);
    True when a nonzero remainder is left.  ``_reduce(cols, rows, pj, pi)``
    reduces row pi by column operations."""
    prow = rows[pi]
    p = prow[pj]
    targets = {i2: v for i2, v in cols[pj].items() if i2 != pi}
    _subtract_multiples(rows, cols, prow, targets, p)
    return any(v % p for v in targets.values())


def _snf_diagonal(rows, cols) -> list[int]:
    """Nonzero invariant factors of the sparse matrix ``rows``/``cols``
    (destructive), as a divisibility chain.

    Each pass pivots on a live entry p of least magnitude.  It reduces p's
    whole column by row operations and, if every remainder there is zero,
    p's whole row by column operations.  A nonzero remainder is smaller
    than |p| and the next pass pivots again; once p divides its row and
    column it is eliminated as a unit pivot is.  The gcd/lcm pass then
    turns the diagonal into a divisibility chain: the pivots of a matrix
    without unit entries need not divide each other.
    """
    diag: list[int] = []
    while True:
        best = pi = pj = 0
        for i, row in rows.items():
            for j, v in row.items():
                av = -v if v < 0 else v
                if not best or av < best:
                    best, pi, pj = av, i, j
        if not best:
            break
        if _reduce(rows, cols, pi, pj) or _reduce(cols, rows, pj, pi):
            continue
        _eliminate(rows, cols, pi, pj)
        diag.append(best)

    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return diag


def _sparse_invariant_factors(columns) -> list[int]:
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
    empty remainder without unit entries goes through ``_snf_diagonal`` on
    the same rows and columns.
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
        best = pi = 0
        for i, v in pcol.items():
            if v == 1 or v == -1:
                row_length = len(rows[i])
                if not best or row_length < best:
                    best, pi = row_length, i
                    if row_length == 1:
                        break
        if not best:
            continue
        for j2 in _eliminate(rows, cols, pi, pj):
            heappush(heap, (len(cols[j2]), j2))
        unit_rank += 1
    return [1] * unit_rank + _snf_diagonal(rows, cols)


# Free-pair collapse on packed cubical face keys.

def _facets(arr, pos, bits, up):
    """Both facets across each free coordinate of each face ``arr[pos]``,
    with repeats, and with each facet the value ``(pos << 6) | 1`` of the
    face it came from."""
    keys = arr[pos]
    free = (keys & up) != 0
    tags = np.broadcast_to((pos << 6) | 1, free.shape)[free]
    facets = np.concatenate([(keys ^ up)[free], (keys ^ up ^ bits)[free]])
    return facets, np.concatenate([tags, tags])


def _free_pair_collapse(keys: np.ndarray, d: int) -> np.ndarray:
    """Remove (free face, its unique coface) pairs until no face is free.

    A face is free when exactly one face of the next dimension contains it.
    Removing it with that coface is an elementary collapse, so the result
    is a downward-closed subcomplex homotopy equivalent to the input.

    The collapse runs in frontier rounds on the sorted key array ``arr``,
    with an ``alive`` mask and one int64 ``live`` per face: the number of
    its live cofaces in the low 6 bits and the sum of their positions in
    ``arr`` above them.  A p-face has at most d - p <= 20 cofaces, so the
    count never carries into the sum, and the sum, below 20 n, fits in
    int64 for any n below 2^52.  ``live`` is filled from the facet side:
    every face adds ``(position << 6) | 1`` at each of its facets.  Each
    round, every face of the frontier (the alive faces with one live
    coface) reads that coface as ``live >> 6``, a coface claimed by several
    free faces keeps only its first pair, and all pairs are removed at
    once.  In a downward-closed complex a free face is never the coface of
    another free face (the two faces between it and the coface's coface
    would both contain it), so after the shared cofaces are resolved the
    pairs of one round are disjoint and removing them is a chain of
    elementary collapses.  Every removed face subtracts its value at its
    facets, and the facets left alive with one coface form the next
    frontier.

    Facets are found with one ``searchsorted`` over all d coordinates at
    once, as rows of a (d, m) array.  Faces go through in slices of
    ``max(n // d, 1024)`` so that no temporary holds much more than n keys.
    No coface is ever searched for.  The collapse is deterministic and
    returns the surviving keys sorted.
    """
    if not len(keys):
        return keys
    arr = np.sort(keys)
    n = len(arr)
    bits = np.int64(1) << np.arange(d, dtype=np.int64)[:, None]
    up = bits << d
    step = max(n // d, 1024)
    alive = np.ones(n, dtype=bool)
    live = np.zeros(n, dtype=np.int64)
    for s in range(0, n, step):
        facets, tags = _facets(arr, np.arange(s, min(s + step, n)), bits, up)
        np.add.at(live, arr.searchsorted(facets), tags)
    frontier = np.flatnonzero(live & 63 == 1)
    while len(frontier):
        cofaces, first = np.unique(live[frontier] >> 6, return_index=True)
        removed = np.concatenate([frontier[first], cofaces])
        alive[removed] = False
        # a face has its final count after the last slice that touches it
        touched = []
        for s in range(0, len(removed), step):
            facets, tags = _facets(arr, removed[s : s + step], bits, up)
            hit = arr.searchsorted(facets)
            np.subtract.at(live, hit, tags)
            touched.append(hit[alive[hit] & (live[hit] & 63 == 1)])
        touched = np.concatenate(touched)
        frontier = _sorted_unique(touched[live[touched] & 63 == 1])
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
            invariants = _sparse_invariant_factors(columns)
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

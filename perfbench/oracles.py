"""Independent reference computations used to check the program's outputs.

Nothing here imports csptopo.  Every answer is computed by a different
route than the library takes: faces by a ternary tensor recurrence over the
whole cube instead of grade-by-grade growth, ranks over GF(2) by
lowest-bit pivoting, components by union-find, solutions by evaluating
each clause on every assignment, and relation flags by vectorised pair
closure, the coset-size test and binary projections.

Bit convention (shared with the file formats): coordinate i of a vertex is
bit i of its index, and the text "011" has coordinate 1 leftmost.
"""

from __future__ import annotations

import numpy as np

CONDITIONS = ("zero_valid", "one_valid", "horn", "dual_horn", "bijunctive", "affine")


def bitstring(value: int, width: int) -> str:
    return "".join("1" if (value >> i) & 1 else "0" for i in range(width))


# Cubical faces by ternary recurrence.

def face_table(d: int, members: np.ndarray) -> np.ndarray:
    """Boolean array of shape (3,)*d: entry (t_0..t_{d-1}) is True when the
    face with digit 2 meaning 'free' and 0/1 meaning 'fixed' has all its
    vertices in ``members``.  Axis i is coordinate i."""
    table = np.zeros((3,) * d, dtype=bool)
    corner = table[(slice(0, 2),) * d]
    inside = np.zeros(1 << d, dtype=bool)
    inside[members] = True
    # index v -> digits (v_0..v_{d-1}); reshape puts the last coordinate first
    corner[...] = inside.reshape((2,) * d).transpose(tuple(reversed(range(d))))
    for axis in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        free = [slice(None)] * d
        lo[axis], hi[axis], free[axis] = 0, 1, 2
        table[tuple(free)] = table[tuple(lo)] & table[tuple(hi)]
    return table


def free_counts(d: int) -> np.ndarray:
    """Number of free digits of every ternary face code, shape (3,)*d."""
    counts = np.zeros((3,) * d, dtype=np.int8)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = 3
        counts += (np.arange(3) == 2).astype(np.int8).reshape(shape)
    return counts


def f_vector(table: np.ndarray) -> list[int]:
    d = table.ndim
    fv = np.bincount(free_counts(d)[table], minlength=d + 1).tolist()
    while fv and fv[-1] == 0:
        fv.pop()
    return fv


def gf2_rank(columns) -> int:
    """Rank over GF(2) of integer bitsets, pivoting on the lowest set bit."""
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            low = v & -v
            w = pivots.get(low)
            if w is None:
                pivots[low] = v
                break
            v ^= w
    return len(pivots)


def gf2_betti(table: np.ndarray) -> list[int]:
    """Mod-2 Betti numbers of the cubical complex given by ``table``."""
    d = table.ndim
    codes = np.flatnonzero(table.ravel())  # C order: axis 0 is the top digit
    free = free_counts(d).ravel()[codes]
    weights = 3 ** np.arange(d - 1, -1, -1, dtype=np.int64)  # weight of axis i
    top = int(free.max()) if len(codes) else -1
    grades = [codes[free == k] for k in range(top + 1)]
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        row_of = {int(c): i for i, c in enumerate(grades[k - 1])}
        digits = (grades[k][:, None] // weights[None, :]) % 3
        columns = []
        for code, dig in zip(grades[k].tolist(), digits):
            bits = 0
            for axis in np.flatnonzero(dig == 2).tolist():
                # digit 2 -> 0 subtracts 2*w, digit 2 -> 1 subtracts w
                w = int(weights[axis])
                bits |= 1 << row_of[code - 2 * w]
                bits |= 1 << row_of[code - w]
            columns.append(bits)
        ranks[k] = gf2_rank(columns)
    return [len(grades[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]


def components(d: int, members) -> int:
    """Connected components of the 1-skeleton by union-find over cube edges."""
    members = sorted(int(v) for v in members)
    parent = {v: v for v in members}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(members)
    for v in members:
        for i in range(d):
            u = v ^ (1 << i)
            if u > v and u in parent:
                a, b = find(u), find(v)
                if a != b:
                    parent[a] = b
                    count -= 1
    return count


# CNF evaluation.

def cnf_solutions(d: int, clauses) -> np.ndarray:
    """Indices of the assignments satisfying every clause (DIMACS literals)."""
    idx = np.arange(1 << d, dtype=np.int64)
    ok = np.ones(1 << d, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << d, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            sat |= bit == (1 if lit > 0 else 0)
        ok &= sat
    return np.flatnonzero(ok)


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    d = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            d = int(parts[2])
            continue
        for tok in parts:
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    return d, clauses


def project(members: np.ndarray, d: int, drop) -> set[int]:
    kept = [i for i in range(d) if i not in set(drop)]
    out = np.zeros(len(members), dtype=np.int64)
    for new, old in enumerate(kept):
        out |= ((members >> old) & 1) << new
    return set(out.tolist())


# Relation flags.

def _closed(arr: np.ndarray, inside: np.ndarray, op) -> bool:
    return bool(inside[op(arr[:, None], arr[None, :])].all())


def _coset(arr: np.ndarray) -> bool:
    if len(arr) == 0:
        return True
    shifted = (arr ^ arr[0]).tolist()
    return len(arr) == 1 << gf2_rank(shifted)


def _bijunctive(arr: np.ndarray, arity: int) -> bool:
    """R equals the set of tuples whose every binary projection lies in
    the matching binary projection of R."""
    if len(arr) == 0:
        return True
    every = np.arange(1 << arity, dtype=np.int64)
    ok = np.ones(1 << arity, dtype=bool)
    for i in range(arity):
        for j in range(i + 1, arity):
            pairs = ((arr >> i) & 1) * 2 + ((arr >> j) & 1)
            allowed = np.zeros(4, dtype=bool)
            allowed[pairs] = True
            ok &= allowed[((every >> i) & 1) * 2 + ((every >> j) & 1)]
    return int(ok.sum()) == len(arr)


def relation_flags(arity: int, tuples) -> dict[str, bool]:
    arr = np.array(sorted(tuples), dtype=np.int64)
    inside = np.zeros(1 << arity, dtype=bool)
    inside[arr] = True
    full = (1 << arity) - 1
    return {
        "zero_valid": bool(inside[0]),
        "one_valid": bool(inside[full]),
        "horn": _closed(arr, inside, np.bitwise_and),
        "dual_horn": _closed(arr, inside, np.bitwise_or),
        "bijunctive": _bijunctive(arr, arity),
        "affine": _coset(arr),
    }


def schaefer_witness(flags: list[dict[str, bool]], with_constants: bool):
    usable = CONDITIONS[2:] if with_constants else CONDITIONS
    for cond in usable:
        if all(f[cond] for f in flags):
            return cond
    return None

"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's vectorized evaluation and bit
tricks: formulas are evaluated per assignment with plain Python,
projection works on coordinate strings, faces are found among all 3^d
faces of the ambient cube, and boundary matrices are dense and built from
``Face`` pairs.  The dense Smith normal form is the sparse elimination of
``csptopo.homology`` behind a dense-matrix interface, the route that the
sympy cross-checks test.
"""

from __future__ import annotations

from itertools import combinations, product

from csptopo import AffineSystem, Clause, Face, Formula, PropertyFlags, Relation, Var
from csptopo.homology import _sparse_invariant_factors


def naive_solutions(formula: Formula) -> set[int]:
    out = set()
    for vertex in range(1 << formula.dimension):
        if all(_holds(c, vertex, formula.relations) for c in formula.constraints):
            out.add(vertex)
    return out


def _holds(constraint, vertex: int, relations) -> bool:
    if isinstance(constraint, Clause):
        for var, positive in constraint.literals():
            value = (vertex >> var) & 1
            if value == (1 if positive else 0):
                return True
        return False
    relation = relations[constraint.relation_id]
    encoded = 0
    for position, arg in enumerate(constraint.args):
        if isinstance(arg, Var):
            bit = (vertex >> arg.index) & 1
        else:
            bit = arg.value
        encoded |= bit << position
    return encoded in relation.tuples


def naive_affine_solutions(system: AffineSystem) -> set[int]:
    out = set()
    for vertex in range(1 << system.dimension):
        ok = True
        for support, rhs in system.equations:
            parity = 0
            for i in range(system.dimension):
                if (support >> i) & 1:
                    parity ^= (vertex >> i) & 1
            if parity != rhs:
                ok = False
                break
        if ok:
            out.add(vertex)
    return out


def naive_project(members: set[int], dims, dimension: int) -> set[int]:
    """Project by deleting characters from coordinate strings."""
    removed = set(dims)
    out = set()
    for vertex in members:
        string = "".join(str((vertex >> i) & 1) for i in range(dimension))
        kept = "".join(ch for i, ch in enumerate(string) if i not in removed)
        out.add(sum(1 << i for i, ch in enumerate(kept) if ch == "1"))
    return out


def naive_relation_flags(rel: Relation) -> PropertyFlags:
    """Schaefer flags straight from the closure definitions, O(|R|^3).

    Only pairwise-distinct pairs and triples need testing: repeating an
    argument makes AND / OR / majority / XOR return a member.
    """
    members = rel.tuples
    tuples = sorted(members)
    full = (1 << rel.arity) - 1
    return PropertyFlags(
        zero_valid=0 in members,
        one_valid=full in members,
        horn=all(a & b in members for a, b in combinations(tuples, 2)),
        dual_horn=all(a | b in members for a, b in combinations(tuples, 2)),
        bijunctive=all(
            (a & b) | (a & c) | (b & c) in members
            for a, b, c in combinations(tuples, 3)
        ),
        affine=all(a ^ b ^ c in members for a, b, c in combinations(tuples, 3)),
    )


def naive_faces(members, d: int) -> set[Face]:
    """Every face of the ambient d-cube whose vertices all lie in ``members``."""
    out = set()
    for mask in range(1 << d):
        free = [1 << i for i in range(d) if (mask >> i) & 1]
        corners = [sum(bits) for bits in product(*[(0, bit) for bit in free])]
        for base in range(1 << d):
            if not base & mask and all(base | c in members for c in corners):
                out.add(Face(mask, base))
    return out


def boundary_matrix(complex_, p: int) -> list[list[int]]:
    """Dense d_p as a list of rows: p-faces are the columns and
    (p-1)-faces the rows, both in the order of ``complex_.faces``.

    A p-face with free coordinates j_1 < ... < j_p has entry (-1)^(t-1) at
    its facet with j_t fixed to 1 and -(-1)^(t-1) at its facet with j_t
    fixed to 0.
    """
    lower, upper = complex_.faces[p - 1 : p + 1]
    row_of = {f: i for i, f in enumerate(lower)}
    out = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        free = [i for i in range(complex_.dimension) if (face.free_mask >> i) & 1]
        for t, i in enumerate(free, start=1):
            sign = (-1) ** (t - 1)
            sub = face.free_mask ^ (1 << i)
            out[row_of[Face(sub, face.base | (1 << i))]][j] += sign
            out[row_of[Face(sub, face.base)]][j] -= sign
    return out


def smith_normal_form(rows: list[list[int]]) -> tuple[int, ...]:
    """Smith normal form diagonal of a dense integer matrix, zeros included."""
    cols = len(rows[0]) if rows else 0
    columns = [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(cols)]
    factors = _sparse_invariant_factors(columns, len(rows))
    return tuple(factors + [0] * (min(len(rows), cols) - len(factors)))

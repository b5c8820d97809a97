"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's vectorized evaluation and bit
tricks: formulas are evaluated per assignment with plain Python, and
projection works on coordinate strings.
"""

from __future__ import annotations

from itertools import combinations

from csptopo import AffineSystem, Clause, Formula, PropertyFlags, Relation, Var


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

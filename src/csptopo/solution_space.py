"""Exhaustive solution enumeration and coordinate projection.

Vertex sets live in {0,1}^d for d <= D_MAX and store member vertex indices.
Enumeration sweeps all 2^d assignments with vectorized constraint masks,
so it is exact and deterministic (ascending vertex index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bits import drop_bit, index_to_bits, bits_to_index
from .errors import ParseError, PreconditionError, ResourceLimitError
from .formula import AffineSystem, Clause, Formula, RelationConstraint, Var

D_MAX = 20


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of the d-dimensional unit cube."""

    dimension: int
    members: frozenset[int]

    def __post_init__(self):
        if not 1 <= self.dimension <= D_MAX:
            raise ResourceLimitError(
                f"vertex set dimension {self.dimension} outside [1, {D_MAX}]"
            )
        size = 1 << self.dimension
        if self.members and (min(self.members) < 0 or max(self.members) >= size):
            raise ValueError("vertex out of range")

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def bitstrings(self) -> list[str]:
        return sorted(index_to_bits(v, self.dimension) for v in self.members)


def full_cube(dimension: int) -> VertexSet:
    return VertexSet(dimension, frozenset(range(1 << dimension)))


def _constraint_mask(constraint, idx: np.ndarray, relations) -> np.ndarray:
    if isinstance(constraint, Clause):
        pos, neg = constraint.pos_mask, constraint.neg_mask
        return ((idx & pos) != 0) | ((idx & neg) != neg)
    rel = relations[constraint.relation_id]
    val = np.zeros(len(idx), dtype=np.int64)
    for j, arg in enumerate(constraint.args):
        if isinstance(arg, Var):
            val |= ((idx >> arg.index) & 1) << j
        elif arg.value:
            val |= 1 << j
    table = np.zeros(1 << rel.arity, dtype=bool)
    if rel.tuples:
        table[sorted(rel.tuples)] = True
    return table[val]


def enumerate_solutions(formula: Formula, d_max: int = D_MAX) -> VertexSet:
    """All satisfying assignments of a formula, as a vertex set."""
    d = formula.dimension
    if d > min(d_max, D_MAX):
        raise ResourceLimitError(
            f"dimension {d} exceeds enumeration cap {min(d_max, D_MAX)}"
        )
    idx = np.arange(1 << d, dtype=np.int64)
    ok = np.ones(1 << d, dtype=bool)
    for c in formula.constraints:
        ok &= _constraint_mask(c, idx, formula.relations)
        if not ok.any():
            break
    return VertexSet(d, frozenset(idx[ok].tolist()))


def affine_solutions(system: AffineSystem, d_max: int = D_MAX) -> VertexSet:
    """All solutions of a GF(2) parity system."""
    d = system.dimension
    if d > min(d_max, D_MAX):
        raise ResourceLimitError(
            f"dimension {d} exceeds enumeration cap {min(d_max, D_MAX)}"
        )
    idx = np.arange(1 << d, dtype=np.int64)
    ok = np.ones(1 << d, dtype=bool)
    for support, rhs in system.equations:
        parity = np.zeros(1 << d, dtype=np.int64)
        m = support
        while m:
            low = m & -m
            parity ^= (idx >> (low.bit_length() - 1)) & 1
            m ^= low
        ok &= parity == rhs
    return VertexSet(d, frozenset(idx[ok].tolist()))


def project(vset: VertexSet, dims) -> VertexSet:
    """Delete the coordinates in ``dims`` (0-based) from every vertex."""
    dims = sorted(set(dims))
    d = vset.dimension
    for i in dims:
        if not 0 <= i < d:
            raise PreconditionError(f"projection dimension {i} out of range")
    if not dims:
        return vset
    if len(dims) == d:
        raise PreconditionError("cannot project away every dimension")
    kept = [i for i in range(d) if i not in set(dims)]
    if not vset.members:
        return VertexSet(d - len(dims), frozenset())
    arr = np.fromiter(vset.members, dtype=np.int64, count=len(vset.members))
    out = np.zeros(len(arr), dtype=np.int64)
    for new_pos, old_pos in enumerate(kept):
        out |= ((arr >> old_pos) & 1) << new_pos
    return VertexSet(d - len(dims), frozenset(out.tolist()))


def _constraint_variables(constraint) -> int:
    if isinstance(constraint, Clause):
        return constraint.variables
    mask = 0
    for a in constraint.args:
        if isinstance(a, Var):
            mask |= 1 << a.index
    return mask


def _remap_constraint(constraint, new_index: dict[int, int]):
    if isinstance(constraint, Clause):
        pos = neg = 0
        for v, positive in constraint.literals():
            bit = 1 << new_index[v]
            if positive:
                pos |= bit
            else:
                neg |= bit
        return Clause(pos, neg)
    args = tuple(
        Var(new_index[a.index]) if isinstance(a, Var) else a for a in constraint.args
    )
    return RelationConstraint(constraint.relation_id, args)


def drop_unconstrained(formula: Formula) -> tuple[Formula, tuple[int, ...]]:
    """Remove variables that occur in no constraint, reindexing the rest.

    If every variable is unconstrained, variable 0 is retained so that the
    result still has dimension >= 1 (its solution set is then a full cube).
    """
    occupied = 0
    for c in formula.constraints:
        occupied |= _constraint_variables(c)
    kept = [i for i in range(formula.dimension) if (occupied >> i) & 1]
    if not kept:
        kept = [0]
    dropped = tuple(i for i in range(formula.dimension) if i not in set(kept))
    if not dropped:
        return formula, ()
    new_index = {old: new for new, old in enumerate(kept)}
    constraints = tuple(_remap_constraint(c, new_index) for c in formula.constraints)
    return replace(formula, dimension=len(kept), constraints=constraints), dropped


def drop_unconstrained_affine(
    system: AffineSystem,
) -> tuple[AffineSystem, tuple[int, ...]]:
    """Affine counterpart of drop_unconstrained."""
    occupied = system.variables()
    kept = [i for i in range(system.dimension) if (occupied >> i) & 1]
    if not kept:
        kept = [0]
    dropped = tuple(i for i in range(system.dimension) if i not in set(kept))
    if not dropped:
        return system, ()
    equations = []
    for support, rhs in system.equations:
        for pos in sorted(dropped, reverse=True):
            support = drop_bit(support, pos)
        equations.append((support, rhs))
    return AffineSystem(len(kept), tuple(equations)), dropped


def emit_vset(vset: VertexSet) -> str:
    lines = [f"vset {vset.dimension}"]
    lines.extend(vset.bitstrings())
    return "\n".join(lines) + "\n"


def parse_vset(text: str) -> VertexSet:
    dimension = None
    members: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vset"):
            if dimension is not None:
                raise ParseError("duplicate 'vset' header", lineno)
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'vset <d>'", lineno)
            try:
                dimension = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            continue
        if dimension is None:
            raise ParseError("vertex before 'vset' header", lineno)
        for tok in line.split():
            if len(tok) != dimension:
                raise ParseError(
                    f"vertex {tok!r} has {len(tok)} bits, expected {dimension}", lineno
                )
            members.add(bits_to_index(tok, lineno))
    if dimension is None:
        raise ParseError("missing 'vset' header")
    return VertexSet(dimension, frozenset(members))

"""Logical relations as truth tables and their Schaefer-style classification.

A relation R of arity k is stored as the set of its member tuples, each
tuple encoded as a k-bit integer (see :mod:`csptopo.bits`).  The six
tractability conditions are decided in polynomial time by the standard
characterizations (Creignou, Khanna & Sudan, *Complexity Classifications
of Boolean Constraint Satisfaction Problems*, 2001):

* 0-valid / 1-valid: membership of the constant tuples, O(1);
* Horn / dual-Horn: closure under coordinatewise AND / OR of pairs, every
  pair looked up in a membership table of size 2^k, O(|R|^2); relations
  with more than ``PAIR_MAX`` = 2^28 tuple pairs |R|(|R|-1)/2, i.e. more
  than 23,170 tuples, are refused before any work;
* bijunctive: R equals the join of its unary and binary projections,
  O(|R| * k^2) as built here, within the O(2^k * k^2) of testing every
  tuple of {0,1}^k;
* affine: R is a coset of a GF(2) subspace, i.e. |R| = 2^rank(R ^ t) for a
  member t, O(|R| * k) plus one rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bits_to_index, gf2_rank
from .errors import ParseError, PreconditionError, ResourceLimitError

ARITY_MAX = 20
PAIR_MAX = 1 << 28

#: Condition names in classification order.
CONDITIONS = ("zero_valid", "one_valid", "horn", "dual_horn", "bijunctive", "affine")


@dataclass(frozen=True)
class Relation:
    """A subset of {0,1}^k, k >= 1."""

    arity: int
    tuples: frozenset[int]
    name: str | None = None

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if self.arity > ARITY_MAX:
            raise ResourceLimitError(
                f"relation arity {self.arity} exceeds cap {ARITY_MAX}"
            )
        size = 1 << self.arity
        for t in self.tuples:
            if not 0 <= t < size:
                raise ValueError(f"tuple {t} out of range for arity {self.arity}")

    @classmethod
    def of(cls, arity: int, bitstrings, name: str | None = None) -> "Relation":
        """Build a relation from coordinate strings like ("001", "010")."""
        bitstrings = list(bitstrings)
        for s in bitstrings:
            if len(s) != arity:
                raise ValueError(f"tuple {s!r} does not have arity {arity}")
        return cls(arity, frozenset(bits_to_index(s) for s in bitstrings), name)

    def __contains__(self, t: int) -> bool:
        return t in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def complement(self) -> "Relation":
        """Flip every bit of every tuple."""
        full = (1 << self.arity) - 1
        return Relation(self.arity, frozenset(full ^ t for t in self.tuples), self.name)

    def permuted(self, perm) -> "Relation":
        """Apply a coordinate permutation (new position i takes old perm[i])."""
        out = set()
        for t in self.tuples:
            v = 0
            for i, p in enumerate(perm):
                if (t >> p) & 1:
                    v |= 1 << i
            out.add(v)
        return Relation(self.arity, frozenset(out), self.name)


@dataclass(frozen=True)
class PropertyFlags:
    zero_valid: bool
    one_valid: bool
    horn: bool
    dual_horn: bool
    bijunctive: bool
    affine: bool

    def get(self, condition: str) -> bool:
        return getattr(self, condition)

    def as_dict(self) -> dict[str, bool]:
        return {c: getattr(self, c) for c in CONDITIONS}


@dataclass(frozen=True)
class SchaeferVerdict:
    tractable: bool
    witness_condition: str | None
    per_relation_flags: tuple[PropertyFlags, ...]
    with_constants: bool


def _is_coset(members) -> bool:
    """True iff the integer bitsets ``members`` form a coset of a GF(2)
    subspace, i.e. are closed under xor of triples.

    Shifted by one member t, the set must be a subspace, which holds iff it
    has exactly 2^rank(S ^ t) elements.  The empty set counts as a coset.
    """
    return not members or len(members) == 1 << gf2_rank(v ^ members[0] for v in members)


def _pair_closed(arr: np.ndarray, inside: np.ndarray, op) -> bool:
    """Closure of the sorted tuples ``arr`` under ``op`` on pairs.

    Each chunk of rows, about 2^16 pairs, is paired with the tuples from its
    own start on, so every unordered pair is visited at least once; a pair
    of equal tuples maps to a member for AND and OR.
    """
    rows = max(1, (1 << 16) // max(len(arr), 1))
    return all(inside[op(arr[start:start + rows, None], arr[None, start:])].all()
               for start in range(0, len(arr), rows))


def _is_binary_join(arr: np.ndarray, arity: int) -> bool:
    """R equals the join of its unary and binary projections.

    The join is built one coordinate at a time: extend every candidate by
    coordinate i, then keep those whose projections onto (j, i), j <= i,
    lie in R's.  R is contained in the join, so R is bijunctive iff the
    join has |R| tuples.  A bijunctive R is majority-closed, and so is each
    projection of it, which therefore equals the join of its own binary
    projections (Baker & Pixley 1975); so while R may be bijunctive, no
    partial join exceeds |R| and a larger one ends the test.
    """
    join = np.zeros(1, dtype=np.int64)
    for i in range(arity):
        join = np.concatenate((join, join | (1 << i)))
        for j in range(i + 1):
            seen = np.zeros(4, dtype=bool)
            seen[((arr >> j) & 1) * 2 + ((arr >> i) & 1)] = True
            join = join[seen[((join >> j) & 1) * 2 + ((join >> i) & 1)]]
        if len(join) > len(arr):
            return False
    return len(join) == len(arr)


def relation_properties(rel: Relation) -> PropertyFlags:
    """Decide all six conditions for a single relation.

    Each flag comes from the characterization named in the module
    docstring: pair closure for Horn / dual-Horn, the join of the binary
    projections for bijunctive, the coset test for affine.  The empty
    relation is vacuously Horn, dual-Horn, bijunctive and affine, but
    neither 0- nor 1-valid.  Raises ResourceLimitError, before any work,
    when R has more than ``PAIR_MAX`` tuple pairs.
    """
    if len(rel) * (len(rel) - 1) // 2 > PAIR_MAX:
        raise ResourceLimitError(f"{len(rel)} tuples exceed the pair cap {PAIR_MAX}")
    members = sorted(rel.tuples)
    arr = np.array(members, dtype=np.int64)
    inside = np.zeros(1 << rel.arity, dtype=bool)
    inside[arr] = True
    return PropertyFlags(
        bool(inside[0]), bool(inside[-1]),
        _pair_closed(arr, inside, np.bitwise_and),
        _pair_closed(arr, inside, np.bitwise_or),
        _is_binary_join(arr, rel.arity), _is_coset(members),
    )


def schaefer_classify(
    relations, with_constants: bool = False
) -> SchaeferVerdict:
    """Classify a relation set: tractable iff one condition holds for all.

    With constants allowed, only the third through sixth conditions count.
    The witness is the first condition (in classification order) shared by
    every relation.
    """
    relations = list(relations)
    if not relations:
        raise PreconditionError("relation set must be nonempty")
    flags = tuple(relation_properties(r) for r in relations)
    usable = CONDITIONS[2:] if with_constants else CONDITIONS
    witness = next((c for c in usable if all(f.get(c) for f in flags)), None)
    return SchaeferVerdict(witness is not None, witness, flags, with_constants)


def parse_relations(text: str) -> list[Relation]:
    """Parse a relation file: blocks of ``rel <name> <arity>`` plus tuples.

    Tuples are whitespace-separated k-bit strings on the following lines;
    a block ends at a blank line, the next ``rel`` header, or EOF.  ``#``
    starts a comment.
    """
    relations: list[Relation] = []
    name = None
    arity = 0
    tuples: set[int] = set()
    header_line = 0
    in_block = False

    def finish():
        nonlocal in_block
        if in_block:
            relations.append(Relation(arity, frozenset(tuples), name))
            in_block = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            finish()
            continue
        parts = line.split()
        if parts[0] == "rel":
            finish()
            if len(parts) != 3:
                raise ParseError("expected 'rel <name> <arity>'", lineno)
            name = parts[1]
            try:
                arity = int(parts[2])
            except ValueError:
                raise ParseError(f"bad arity {parts[2]!r}", lineno) from None
            if arity < 1:
                raise ParseError(f"arity must be >= 1, got {arity}", lineno)
            if arity > ARITY_MAX:
                raise ResourceLimitError(
                    f"line {lineno}: arity {arity} exceeds cap {ARITY_MAX}"
                )
            tuples = set()
            header_line = lineno
            in_block = True
        else:
            if not in_block:
                raise ParseError("tuple data before any 'rel' header", lineno)
            for tok in parts:
                if len(tok) != arity:
                    raise ParseError(
                        f"tuple {tok!r} has {len(tok)} bits, arity is {arity}"
                        f" (relation at line {header_line})",
                        lineno,
                    )
                tuples.add(bits_to_index(tok, lineno))
    finish()
    return relations


def parse_relation(text: str) -> Relation:
    """Parse a relation file expected to contain exactly one block."""
    relations = parse_relations(text)
    if len(relations) != 1:
        raise ParseError(f"expected exactly one relation, found {len(relations)}")
    return relations[0]

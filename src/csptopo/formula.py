"""CSP instances and CNF formulas over boolean variables.

A formula is a conjunction of constraints over variables x1..xd.  Each
constraint is either a disjunctive clause (stored as positive/negative
variable masks) or an application of a named relation to variables and
optional constant arguments.  Variables are 1-indexed in every text format
and 0-indexed internally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bits import drop_bit, iter_bits
from .errors import ParseError, PreconditionError
from .relations import Relation


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


Arg = Var | Const


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; bit i of a mask stands for variable i."""

    pos_mask: int = 0
    neg_mask: int = 0

    @classmethod
    def of(cls, *literals: int) -> "Clause":
        """Build from DIMACS-style signed 1-based literals, e.g. Clause.of(1, -3)."""
        pos = neg = 0
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        return cls(pos, neg)

    @property
    def width(self) -> int:
        return self.pos_mask.bit_count() + self.neg_mask.bit_count()

    @property
    def positive_count(self) -> int:
        return self.pos_mask.bit_count()

    @property
    def negative_count(self) -> int:
        return self.neg_mask.bit_count()

    @property
    def variables(self) -> int:
        return self.pos_mask | self.neg_mask

    def is_empty(self) -> bool:
        return self.variables == 0

    def is_tautology(self) -> bool:
        return bool(self.pos_mask & self.neg_mask)

    def literals(self) -> tuple[tuple[int, bool], ...]:
        """(variable, is_positive) pairs sorted by variable, positive first."""
        out = []
        for v in iter_bits(self.variables):
            if (self.pos_mask >> v) & 1:
                out.append((v, True))
            if (self.neg_mask >> v) & 1:
                out.append((v, False))
        return tuple(out)

    def signed_literals(self) -> tuple[int, ...]:
        """DIMACS-style signed 1-based literals, sorted by variable."""
        return tuple((v + 1) if positive else -(v + 1) for v, positive in self.literals())

    def drop_variable(self, variable: int) -> "Clause":
        """Remove any literal on ``variable`` and reindex higher variables."""
        return Clause(drop_bit(self.pos_mask & ~(1 << variable), variable),
                      drop_bit(self.neg_mask & ~(1 << variable), variable))


@dataclass(frozen=True)
class RelationConstraint:
    """Application of ``relations[relation_id]`` to variables/constants."""

    relation_id: int
    args: tuple[Arg, ...]


Constraint = Clause | RelationConstraint


@dataclass(frozen=True)
class Formula:
    dimension: int
    constraints: tuple[Constraint, ...] = ()
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("formula dimension must be >= 1")
        limit = 1 << self.dimension
        for c in self.constraints:
            if isinstance(c, Clause):
                if c.variables >= limit:
                    raise ValueError("clause variable out of range")
            else:
                rel = self.relations[c.relation_id]
                if len(c.args) != rel.arity:
                    raise ValueError(
                        f"relation {rel.name or c.relation_id} expects "
                        f"{rel.arity} arguments, got {len(c.args)}"
                    )
                for a in c.args:
                    if isinstance(a, Var) and not 0 <= a.index < self.dimension:
                        raise ValueError(f"variable v{a.index + 1} out of range")
                    if isinstance(a, Const) and a.value not in (0, 1):
                        raise ValueError(f"bad constant {a.value}")

    def is_cnf(self) -> bool:
        return all(isinstance(c, Clause) for c in self.constraints)

    def clauses(self) -> tuple[Clause, ...]:
        if not self.is_cnf():
            raise PreconditionError("formula is not in CNF form")
        return self.constraints  # type: ignore[return-value]


def clause_shape(formula: Formula) -> tuple[int, int, int]:
    """Maximum (total, positive, negative) literal counts over all clauses."""
    k = p = n = 0
    for c in formula.clauses():
        k = max(k, c.width)
        p = max(p, c.positive_count)
        n = max(n, c.negative_count)
    return (k, p, n)


def remove_tautologies(formula: Formula) -> Formula:
    """Normalization pass dropping clauses that contain x and not-x."""
    kept = tuple(
        c
        for c in formula.constraints
        if not (isinstance(c, Clause) and c.is_tautology())
    )
    return replace(formula, constraints=kept)


# Syntactic clause classes.

FLAVOR_TWO_SAT = "two_sat"
FLAVOR_HORN = "horn"
FLAVOR_DUAL_HORN = "dual_horn"
CLAUSE_FLAVORS = (FLAVOR_TWO_SAT, FLAVOR_HORN, FLAVOR_DUAL_HORN)


def clause_in_flavor(clause: Clause, flavor: str) -> bool:
    if flavor == FLAVOR_TWO_SAT:
        return clause.width <= 2
    if flavor == FLAVOR_HORN:
        return clause.positive_count <= 1
    if flavor == FLAVOR_DUAL_HORN:
        return clause.negative_count <= 1
    raise ValueError(f"unknown clause flavor {flavor!r}")


def formula_in_flavor(formula: Formula, flavor: str) -> bool:
    return formula.is_cnf() and all(
        clause_in_flavor(c, flavor) for c in formula.clauses()
    )


# DIMACS CNF.

def parse_dimacs(text: str) -> Formula:
    """Parse standard DIMACS CNF.  Empty clauses are legal and unsatisfiable."""
    dimension = None
    declared = None
    header_line = 0
    clauses: list[Clause] = []
    pos = neg = 0
    open_clause = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if dimension is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            try:
                dimension, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if dimension < 1:
                raise ParseError("variable count must be >= 1", lineno)
            if declared < 0:
                raise ParseError("negative clause count", lineno)
            header_line = lineno
            continue
        if dimension is None:
            raise ParseError("clause data before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(Clause(pos, neg))
                pos = neg = 0
                open_clause = False
                continue
            var = abs(lit) - 1
            if var >= dimension:
                raise ParseError(f"variable {abs(lit)} out of range", lineno)
            if lit > 0:
                pos |= 1 << var
            else:
                neg |= 1 << var
            open_clause = True

    if dimension is None:
        raise ParseError("missing 'p cnf' header")
    if open_clause:
        raise ParseError("last clause is not terminated by 0")
    if declared != len(clauses):
        raise ParseError(
            f"header declares {declared} clauses, found {len(clauses)}", header_line
        )
    return Formula(dimension, tuple(clauses))


def emit_dimacs(formula: Formula) -> str:
    """Serialize a CNF formula; inverse of parse_dimacs on normalized input."""
    lines = [f"p cnf {formula.dimension} {len(formula.constraints)}"]
    for c in formula.clauses():
        lits = " ".join(str(lit) for lit in c.signed_literals())
        lines.append(f"{lits} 0" if lits else "0")
    return "\n".join(lines) + "\n"


# CSP text format: "dim <d>" header, then one constraint per line,
# "<relname> <arg>..." with args v<i>, T, F.

def parse_csp(text: str, relations, allow_constants: bool = True) -> Formula:
    """Parse a CSP instance against a relation table (list of named relations)."""
    by_name: dict[str, int] = {}
    table = tuple(relations)
    for i, rel in enumerate(table):
        if rel.name:
            by_name[rel.name] = i
    dimension = None
    constraints: list[Constraint] = []
    used: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dimension is not None:
                raise ParseError("duplicate 'dim' header", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'dim <d>'", lineno)
            try:
                dimension = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            if dimension < 1:
                raise ParseError("dimension must be >= 1", lineno)
            continue
        if dimension is None:
            raise ParseError("constraint before 'dim' header", lineno)
        name = parts[0]
        if name not in by_name:
            raise ParseError(f"unknown relation {name!r}", lineno)
        rid = by_name[name]
        args: list[Arg] = []
        for tok in parts[1:]:
            if tok == "T":
                arg: Arg = Const(1)
            elif tok == "F":
                arg = Const(0)
            elif tok.startswith("v"):
                try:
                    idx = int(tok[1:])
                except ValueError:
                    raise ParseError(f"bad argument {tok!r}", lineno) from None
                if not 1 <= idx <= dimension:
                    raise ParseError(f"variable {tok} out of range", lineno)
                arg = Var(idx - 1)
            else:
                raise ParseError(f"bad argument {tok!r}", lineno)
            if isinstance(arg, Const) and not allow_constants:
                raise ParseError("constants are disabled", lineno)
            args.append(arg)
        if len(args) != table[rid].arity:
            raise ParseError(
                f"relation {name} expects {table[rid].arity} arguments, "
                f"got {len(args)}",
                lineno,
            )
        used.add(rid)
        constraints.append(RelationConstraint(rid, tuple(args)))

    if dimension is None:
        raise ParseError("missing 'dim' header")
    return Formula(dimension, tuple(constraints), table)


def emit_csp(formula: Formula) -> str:
    """Serialize a relation-application formula in the CSP text format."""
    lines = [f"dim {formula.dimension}"]
    for c in formula.constraints:
        if not isinstance(c, RelationConstraint):
            raise PreconditionError("emit_csp requires relation constraints")
        rel = formula.relations[c.relation_id]
        name = rel.name or f"R{c.relation_id}"
        args = " ".join(
            f"v{a.index + 1}" if isinstance(a, Var) else ("T" if a.value else "F")
            for a in c.args
        )
        lines.append(f"{name} {args}" if args else name)
    return "\n".join(lines) + "\n"


# Affine systems over GF(2).

@dataclass(frozen=True)
class AffineSystem:
    """Conjunction of parity equations: each (support mask, rhs bit)."""

    dimension: int
    equations: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("system dimension must be >= 1")
        limit = 1 << self.dimension
        for support, rhs in self.equations:
            if not 0 <= support < limit:
                raise ValueError("equation support out of range")
            if rhs not in (0, 1):
                raise ValueError("equation rhs must be 0 or 1")

    def normalized(self) -> "AffineSystem":
        """Drop 0=0 equations, deduplicate, sort.  Keeps 0=1 as the marker
        of an inconsistent system."""
        eqs = sorted({e for e in self.equations if e != (0, 0)})
        return AffineSystem(self.dimension, tuple(eqs))

    def variables(self) -> int:
        mask = 0
        for support, _ in self.equations:
            mask |= support
        return mask


def emit_affine(system: AffineSystem) -> str:
    """Compact one-line rendering, e.g. "d=3; x1^x3=1; x2^x3=0"."""
    parts = [f"d={system.dimension}"]
    for support, rhs in system.equations:
        vars_ = "^".join(f"x{i + 1}" for i in iter_bits(support)) or "0"
        parts.append(f"{vars_}={rhs}")
    return "; ".join(parts)

"""Empirical checks of structural claims about tractable solution spaces.

Each check generates seeded random instances, computes both sides of a
claimed property through independent code paths where possible, and
reports counterexamples.  Reports are reproducible bit-for-bit from their
seed.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from random import Random

from .constructions import eliminate_affine, eliminate_clausal
from .cubical import induce_complex, skeleton_components, union_complex
from .errors import PreconditionError
from .formula import (
    AffineSystem,
    CLAUSE_FLAVORS,
    Clause,
    Formula,
    RelationConstraint,
    Var,
    emit_affine,
    emit_csp,
    emit_dimacs,
    formula_in_flavor,
)
from .homology import COEFF_Z, homology
from .relations import Relation, _is_coset
from .solution_space import (
    D_MAX,
    VertexSet,
    affine_solutions,
    drop_unconstrained,
    drop_unconstrained_affine,
    enumerate_solutions,
    full_cube,
    project,
)

FLAVOR_AFFINE = "affine"
FLAVOR_ONE_IN_THREE = "one_in_three"
_CNF_RE = re.compile(r"cnf\((\d+)\)")

#: Exactly-one-of-three-variables relation (the three weight-1 tuples).
ONE_IN_THREE = Relation.of(3, ("100", "010", "001"), name="ONE_IN_THREE")


@dataclass(frozen=True)
class GeneratorParams:
    flavor: str
    dim_range: tuple[int, int] = (2, 8)
    count_range: tuple[int, int] = (1, 10)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.dim_range
        if not 1 <= lo <= hi <= D_MAX:
            raise PreconditionError(f"dimension range {self.dim_range} out of bounds")
        clo, chi = self.count_range
        if not 1 <= clo <= chi:
            raise PreconditionError(f"count range {self.count_range} invalid")
        if self.flavor == FLAVOR_ONE_IN_THREE and lo < 3:
            raise PreconditionError("one_in_three needs dimension >= 3")
        if (
            self.flavor not in CLAUSE_FLAVORS
            and self.flavor not in (FLAVOR_AFFINE, FLAVOR_ONE_IN_THREE)
            and not _CNF_RE.fullmatch(self.flavor)
        ):
            raise PreconditionError(f"unknown flavor {self.flavor!r}")


@dataclass
class Failure:
    instance: str
    expected: str
    observed: str

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "expected": self.expected,
            "observed": self.observed,
        }


@dataclass
class CheckReport:
    check: str
    trials: int
    failures: list[Failure]
    seed: int
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "trials": self.trials,
            "failures": [f.to_json_dict() for f in self.failures],
            "seed": self.seed,
            "ms": self.elapsed_ms,
        }


def _rng(params: GeneratorParams, trial: int, salt: str = "") -> Random:
    return Random(f"{params.seed}:{trial}:{salt}")


def _random_clause(rng: Random, d: int, flavor: str, max_width: int) -> Clause:
    """One random non-tautological clause without duplicate literals."""
    if flavor == "two_sat":
        width = 2 if d >= 2 and rng.random() < 0.85 else 1
    else:
        width = rng.randint(1, max(1, min(d, max_width)))
    variables = rng.sample(range(d), width)
    literals = []
    if flavor == "horn":
        positive_at = rng.randrange(width) if rng.random() < 0.7 else -1
        for i, v in enumerate(variables):
            literals.append(v + 1 if i == positive_at else -(v + 1))
    elif flavor == "dual_horn":
        negative_at = rng.randrange(width) if rng.random() < 0.7 else -1
        for i, v in enumerate(variables):
            literals.append(-(v + 1) if i == negative_at else v + 1)
    else:
        for v in variables:
            literals.append(v + 1 if rng.getrandbits(1) else -(v + 1))
    return Clause.of(*literals)


def random_formula(params: GeneratorParams, trial: int = 0):
    """Deterministic random instance of the requested flavor.

    Clause flavors and cnf(k) yield a CNF Formula, ``affine`` an
    AffineSystem, ``one_in_three`` a Formula of relation applications.
    """
    rng = _rng(params, trial)
    d = rng.randint(*params.dim_range)
    n = rng.randint(*params.count_range)
    flavor = params.flavor

    if flavor == FLAVOR_AFFINE:
        equations = []
        for _ in range(min(n, d)):
            size = rng.randint(1, min(d, 4))
            support = 0
            for v in rng.sample(range(d), size):
                support |= 1 << v
            equations.append((support, rng.getrandbits(1)))
        return AffineSystem(d, tuple(equations))

    if flavor == FLAVOR_ONE_IN_THREE:
        constraints = tuple(
            RelationConstraint(0, tuple(Var(v) for v in rng.sample(range(d), 3)))
            for _ in range(n)
        )
        return Formula(d, constraints, (ONE_IN_THREE,))

    match = _CNF_RE.fullmatch(flavor)
    max_width = int(match.group(1)) if match else 4
    kind = "cnf" if match else flavor
    clauses = tuple(_random_clause(rng, d, kind, max_width) for _ in range(n))
    return Formula(d, clauses)


def _run_check(name, params, trials, body) -> CheckReport:
    start = time.perf_counter()
    failures: list[Failure] = []
    for trial in range(trials):
        failure = body(trial)
        if failure is not None:
            failures.append(failure)
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckReport(name, trials, failures, params.seed, elapsed)


def check_tractable_homology(params: GeneratorParams, trials: int = 200) -> CheckReport:
    """Solution complexes of 2-SAT / Horn / dual-Horn formulas must have
    trivial homology in every degree >= 1."""
    if params.flavor not in CLAUSE_FLAVORS:
        raise PreconditionError("flavor must be two_sat, horn, or dual_horn")

    def body(trial: int):
        formula = random_formula(params, trial)
        profile = homology(induce_complex(enumerate_solutions(formula)), COEFF_Z)
        if not profile.is_trivial_above(1):
            return Failure(
                emit_dimacs(formula),
                "H_p = 0 for all p >= 1",
                str(profile.to_json_dict()),
            )
        return None

    return _run_check("tractable-homology", params, trials, body)


def check_affine_structure(params: GeneratorParams, trials: int = 100) -> CheckReport:
    """After dropping unconstrained variables, affine solution complexes
    are edge-free with one component per solution."""
    if params.flavor != FLAVOR_AFFINE:
        raise PreconditionError("flavor must be affine")

    def body(trial: int):
        system = random_formula(params, trial).normalized()
        reduced, _ = drop_unconstrained_affine(system)
        solutions = affine_solutions(reduced)
        complex_ = induce_complex(solutions)
        profile = homology(complex_, COEFF_Z)
        fvec = complex_.f_vector()
        if not reduced.equations:
            # degenerate: no constraints at all, one retained variable
            ok = solutions == full_cube(reduced.dimension) and profile.is_trivial_above(1)
            expected = "full cube with trivial homology"
        else:
            edges = fvec[1] if len(fvec) > 1 else 0
            ok = edges == 0 and profile.degree(0)[0] == len(solutions)
            expected = "f_1 = 0 and betti_0 = |solutions|"
        if not ok:
            return Failure(
                emit_affine(system),
                expected,
                f"f={fvec} betti={profile.betti}",
            )
        return None

    return _run_check("affine-structure", params, trials, body)


def check_wedge_union(
    params: GeneratorParams, wedge_count: int, trials: int = 100
) -> CheckReport:
    """The union of the solution complexes of n clauses has trivial
    homology in every degree >= n."""
    if params.flavor not in CLAUSE_FLAVORS:
        raise PreconditionError("flavor must be two_sat, horn, or dual_horn")
    if not 1 <= wedge_count <= 4:
        raise PreconditionError("wedge count must be in 1..4")
    if params.dim_range[1] > 8:
        raise PreconditionError("wedge-union check is limited to dimension <= 8")
    fixed = replace(params, count_range=(wedge_count, wedge_count))

    def body(trial: int):
        formula = random_formula(fixed, trial)
        wedges = [
            induce_complex(enumerate_solutions(Formula(formula.dimension, (c,))))
            for c in formula.clauses()
        ]
        profile = homology(union_complex(wedges), COEFF_Z)
        if not profile.is_trivial_above(wedge_count):
            return Failure(
                emit_dimacs(formula),
                f"H_p = 0 for all p >= {wedge_count}",
                str(profile.to_json_dict()),
            )
        return None

    return _run_check("wedge-union", fixed, trials, body)


def check_trivially_valid(
    params: GeneratorParams, relations, trials: int = 50
) -> CheckReport:
    """Instances over all-0-valid (all-1-valid) relations always contain
    the all-zeros (all-ones) assignment."""
    relations = tuple(relations)
    if not relations:
        raise PreconditionError("relation set must be nonempty")
    if all(0 in r for r in relations):
        target_ones = False
    elif all((1 << r.arity) - 1 in r for r in relations):
        target_ones = True
    else:
        raise PreconditionError("relations must be all 0-valid or all 1-valid")

    def body(trial: int):
        rng = _rng(params, trial)
        d = rng.randint(*params.dim_range)
        n = rng.randint(*params.count_range)
        constraints = []
        for _ in range(n):
            rid = rng.randrange(len(relations))
            arity = relations[rid].arity
            args = tuple(Var(rng.randrange(d)) for _ in range(arity))
            constraints.append(RelationConstraint(rid, args))
        formula = Formula(d, tuple(constraints), relations)
        target = (1 << d) - 1 if target_ones else 0
        solutions = enumerate_solutions(formula)
        if target not in solutions:
            return Failure(
                emit_csp(formula),
                f"vertex {'1' * d if target_ones else '0' * d} is a solution",
                f"{len(solutions)} solutions without it",
            )
        return None

    return _run_check("trivially-valid", params, trials, body)


def check_one_in_three_structure(
    params: GeneratorParams, trials: int = 100
) -> CheckReport:
    """Exactly-one-of-three solution complexes split into components each
    spanning a single face of the cube."""
    if params.flavor != FLAVOR_ONE_IN_THREE:
        raise PreconditionError("flavor must be one_in_three")

    def body(trial: int):
        formula = random_formula(params, trial)
        reduced, _ = drop_unconstrained(formula)
        complex_ = induce_complex(enumerate_solutions(reduced))
        _, labels = skeleton_components(complex_)
        groups: dict[int, list[int]] = {}
        for vertex, label in labels.items():
            groups.setdefault(label, []).append(vertex)
        for vertices in groups.values():
            and_mask = or_mask = vertices[0]
            for v in vertices[1:]:
                and_mask &= v
                or_mask |= v
            free = or_mask & ~and_mask
            if len(vertices) != 1 << free.bit_count():
                return Failure(
                    emit_csp(formula),
                    "every component spans exactly one subcube",
                    f"component of {len(vertices)} vertices spans mask {free:b}",
                )
        return None

    return _run_check("one-in-three", params, trials, body)


def check_projection_constructions(
    params: GeneratorParams, trials: int = 200
) -> CheckReport:
    """Constructive variable elimination agrees exactly with brute-force
    projection and stays inside its syntactic class."""
    if params.flavor not in CLAUSE_FLAVORS + (FLAVOR_AFFINE,):
        raise PreconditionError("flavor must be clausal or affine")

    def body(trial: int):
        instance = random_formula(params, trial)
        d = instance.dimension
        rng = _rng(params, trial, "proj")
        size = rng.randint(0, min(3, d - 1))
        dims = rng.sample(range(d), size)

        if params.flavor == FLAVOR_AFFINE:
            brute = project(affine_solutions(instance), dims)
            constructive = eliminate_affine(instance, dims)
            observed = affine_solutions(constructive)
            in_class = _is_coset(observed.sorted_members())
            serialization = emit_affine(instance)
        else:
            brute = project(enumerate_solutions(instance), dims)
            constructive = eliminate_clausal(instance, dims, params.flavor)
            observed = enumerate_solutions(constructive)
            in_class = formula_in_flavor(constructive, params.flavor)
            serialization = emit_dimacs(instance)

        if observed != brute or not in_class:
            return Failure(
                f"{serialization} | eliminate {sorted(dims)}",
                f"projection onto {d - len(dims)} dims, class preserved",
                f"match={observed == brute} in_class={in_class}",
            )
        return None

    return _run_check("projection", params, trials, body)

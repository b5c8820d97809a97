"""Seeded workloads: input generators, the CLI calls each item makes, and
the independent checks of each item's output.

An item is one unit of timed work: one or more ``csptopo`` command lines
run in-process through ``cli.main``.  Items come in fixed rounds (one item
of every kind the workload mixes), and a run always executes whole rounds,
so every run attempts the same mix.  Inputs depend only on the workload
seed and the item index; the program sees only the generated files and,
for ``verify``, the seed argument that command takes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles


def item_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), index, 0])


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def dimacs(d: int, clauses) -> str:
    lines = [f"p cnf {d} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def vset_text(d: int, members) -> str:
    return f"vset {d}\n" + "".join(oracles.bitstring(int(v), d) + "\n" for v in members)


def parse_output(output) -> dict:
    """The JSON document printed by one CLI call, or an error string."""
    rc, text = output
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


class Workload:
    """One workload: ``round_kinds`` items per round, ``pool_rounds`` rounds
    of distinct inputs (a run past the pool starts over), and
    ``trace_rounds`` rounds in a traced run, which covers a fixed set of
    items so its per-layer sums compare between versions."""

    name = ""
    round_kinds = 1
    pool_rounds = 1
    trace_rounds = 1

    def build(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def warmup(self, workdir: Path):
        raise NotImplementedError

    def run(self, main, item) -> list:
        """Run one item; returns (exit code, stdout) per CLI call."""
        return [main(argv) for argv in item["argvs"]]

    def check(self, item, outputs) -> None:
        """Raise ValueError when an output is wrong."""
        raise NotImplementedError


# betti_random: Z homology of dense random vertex sets.

class BettiRandom(Workload):
    """Dense random vertex sets, where the free-pair collapse removes little
    and exact Z elimination takes almost all the time."""

    name = "betti_random"
    # (dimension, share of cube vertices).  One kind only: d=10 sets cost
    # about as much near 57 % density, but sit on the crossover from H_1 to
    # H_2 there and vary threefold in cost from one set to the next
    specs = ((9, 0.72),)
    round_kinds = len(specs)
    pool_rounds = 120
    trace_rounds = 50

    def build(self, seed, workdir):
        items = []
        for i in range(self.round_kinds * self.pool_rounds):
            d, share = self.specs[i % self.round_kinds]
            rng = item_rng(seed, i)
            members = np.sort(rng.choice(1 << d, size=round(share * (1 << d)), replace=False))
            path = write(workdir / f"random{i}.vset", vset_text(d, members))
            items.append({"d": d, "members": members,
                          "argvs": [["betti", path, "--coeffs", "Z"]]})
        return items

    def warmup(self, workdir):
        path = write(workdir / "warm.vset", vset_text(3, [0, 1, 3, 2, 6]))
        return {"argvs": [["betti", path, "--coeffs", "Z"]]}

    def check(self, item, outputs):
        out = parse_output(outputs[0])
        d, members = item["d"], item["members"]
        table = oracles.face_table(d, members)
        fvec = oracles.f_vector(table)
        betti, torsion = out["betti"], out["torsion"]
        if out["f"] != fvec:
            raise ValueError(f"f-vector {out['f']} != {fvec}")
        if len(betti) != len(fvec) or len(torsion) != len(fvec):
            raise ValueError("profile length differs from f-vector length")
        euler = sum((-1) ** p * f for p, f in enumerate(fvec))
        if euler != sum((-1) ** p * b for p, b in enumerate(betti)):
            raise ValueError("Euler characteristic mismatch")
        if betti[0] != oracles.components(d, members):
            raise ValueError("betti_0 differs from component count")
        # universal coefficients: H_p(Z2) = H_p (x) Z2 + Tor(H_{p-1}, Z2)
        even = [sum(1 for t in ts if t % 2 == 0) for ts in torsion]
        expected = [b + even[p] + (even[p - 1] if p else 0) for p, b in enumerate(betti)]
        mod2 = oracles.gf2_betti(table)
        if mod2 != expected:
            raise ValueError(f"mod-2 Betti {mod2} != {expected} from the Z profile")


# betti_tractable: Z homology of satisfiable 2-SAT / Horn / dual-Horn CNFs.

def clause_of(rng, d: int, flavor: str) -> list[int]:
    width = 2 if flavor == "two_sat" else int(rng.integers(2, 5))
    variables = rng.choice(d, size=width, replace=False) + 1
    if flavor == "two_sat":
        signs = rng.integers(0, 2, size=width) * 2 - 1
    else:
        # horn: at most one positive literal; dual_horn: at most one negative
        signs = -np.ones(width, dtype=np.int64)
        if rng.random() < 0.7:
            signs[rng.integers(width)] = 1
        if flavor == "dual_horn":
            signs = -signs
    return (variables * signs).tolist()


def tractable_cnf(rng, d: int, flavor: str, lo: int, hi: int):
    """Add random clauses of the flavor until the induced complex has at
    most ``hi`` faces, backing out a clause that leaves fewer than ``lo``."""
    idx = np.arange(1 << d, dtype=np.int64)
    while True:
        clauses: list[list[int]] = []
        ok = np.ones(1 << d, dtype=bool)
        for _ in range(64):
            clause = clause_of(rng, d, flavor)
            sat = np.zeros(1 << d, dtype=bool)
            for lit in clause:
                sat |= ((idx >> (abs(lit) - 1)) & 1) == (lit > 0)
            narrowed = ok & sat
            count = int(narrowed.sum())
            if count * 20 > hi:  # still far more than hi faces
                clauses.append(clause)
                ok = narrowed
                continue
            faces = int(oracles.face_table(d, np.flatnonzero(narrowed)).sum()) if count else 0
            if faces < lo:
                continue
            clauses.append(clause)
            ok = narrowed
            if faces <= hi:
                return clauses


class BettiTractable(Workload):
    """Satisfiable formulas of the three clausal tractable classes, sized to
    tens of thousands of faces: collapse and induce dominate, the collapsed
    complex is a handful of faces, and elimination is near zero."""

    name = "betti_tractable"
    flavors = ("two_sat", "horn", "dual_horn")
    # d=13 is left out: there the free-pair collapse stalls on about one
    # dual-Horn formula in a hundred, and that item alone takes ~20 s
    d = 12
    round_kinds = len(flavors)
    pool_rounds = 24
    trace_rounds = 24
    faces = (25_000, 40_000)

    def build(self, seed, workdir):
        items = []
        for i in range(self.round_kinds * self.pool_rounds):
            flavor = self.flavors[i % self.round_kinds]
            clauses = tractable_cnf(item_rng(seed, i), self.d, flavor, *self.faces)
            path = write(workdir / f"{flavor}{i}.cnf", dimacs(self.d, clauses))
            items.append({"d": self.d, "clauses": clauses,
                          "argvs": [["betti", path, "--coeffs", "Z"]]})
        return items

    def warmup(self, workdir):
        path = write(workdir / "warm.cnf", dimacs(3, [[1, -2], [-1, 3]]))
        return {"argvs": [["betti", path, "--coeffs", "Z"]]}

    def check(self, item, outputs):
        out = parse_output(outputs[0])
        d = item["d"]
        solutions = oracles.cnf_solutions(d, item["clauses"])
        if out["f"][0] != len(solutions):
            raise ValueError(f"f_0 {out['f'][0]} != {len(solutions)} solutions")
        if out["f"] != oracles.f_vector(oracles.face_table(d, solutions)):
            raise ValueError("f-vector mismatch")
        if any(out["betti"][1:]) or any(out["torsion"]):
            raise ValueError(f"nontrivial homology above degree 0: {out}")
        if out["betti"][0] != oracles.components(d, solutions):
            raise ValueError("betti_0 differs from component count")


# verify_sweep: many seeded verify checks on tiny instances, plus the
# 3-CNF -> (3,2,2) reduction chain.

# (check, flavor, trials, extra arguments); trial counts are set so every
# kind takes about the same time (~25 ms here), which keeps the median item
# time inside one cluster instead of between clusters of cheap and dear
# kinds.  Dimension and clause-count windows are narrow, so that no kind has
# a long tail of dear instances that would decide item_tail_ms on its own.
NARROW = ["--dims-range", "7:7", "--counts", "3:6"]
VERIFY_KINDS = (
    ("tractable-homology", "two_sat", 12, NARROW),
    ("tractable-homology", "horn", 9, NARROW),
    ("tractable-homology", "dual_horn", 9, NARROW),
    ("affine-structure", "affine", 100, []),
    ("wedge-union", "two_sat", 15, ["--wedges", "2", "--dims-range", "5:5"]),
    ("one-in-three", "one_in_three", 110, []),
    ("projection", "horn", 110, []),
    ("projection", "affine", 150, []),
)


class VerifySweep(Workload):
    """Thousands of tiny complexes per run: per-call costs dominate, so a
    change that speeds large matrices but adds fixed cost per call loses
    here."""

    name = "verify_sweep"
    round_kinds = len(VERIFY_KINDS) + 1
    pool_rounds = 200
    trace_rounds = 60

    def build(self, seed, workdir):
        items = []
        for i in range(self.round_kinds * self.pool_rounds):
            kind = i % self.round_kinds
            if kind < len(VERIFY_KINDS):
                check, flavor, trials, extra = VERIFY_KINDS[kind]
                argv = ["verify", check, "--flavor", flavor, "--trials", str(trials),
                        "--seed", str((seed % 1_000_000) * 100_003 + i)] + extra
                items.append({"check": check, "trials": trials, "argvs": [argv]})
            else:
                items.append(self._chain_item(seed, i, workdir))
        return items

    @staticmethod
    def _chain_item(seed, i, workdir):
        """A 6-variable CNF with two width-4 clauses."""
        rng = item_rng(seed, i)
        clauses = []
        for width in (4, 4):
            variables = rng.choice(6, size=width, replace=False) + 1
            clauses.append((variables * (rng.integers(0, 2, size=width) * 2 - 1)).tolist())
        path = write(workdir / f"chain{i}.cnf", dimacs(6, clauses))
        return {"chain": True, "d": 6, "clauses": clauses, "path": path,
                "path3": str(workdir / f"chain{i}.3.cnf"),
                "path322": str(workdir / f"chain{i}.322.cnf")}

    def warmup(self, workdir):
        return {"argvs": [["verify", "affine-structure", "--trials", "2"]]}

    def run(self, main, item):
        if "chain" not in item:
            return super().run(main, item)
        outputs = [main(["reduce3", item["path"]])]
        if outputs[0][0] == 0:
            Path(item["path3"]).write_text(json.loads(outputs[0][1])["cnf"], encoding="utf-8")
            outputs.append(main(["reduce322", item["path3"]]))
        if outputs[-1][0] == 0 and len(outputs) == 2:
            Path(item["path322"]).write_text(json.loads(outputs[1][1])["cnf"], encoding="utf-8")
            for path in (item["path"], item["path3"], item["path322"]):
                outputs.append(main(["betti", path, "--coeffs", "Z"]))
        return outputs

    def check(self, item, outputs):
        if "chain" not in item:
            report = parse_output(outputs[0])
            if report["check"] != item["check"] or report["trials"] != item["trials"]:
                raise ValueError(f"report {report['check']}/{report['trials']} not as asked")
            if report["failures"]:
                raise ValueError(f"{len(report['failures'])} failures")
            return
        if len(outputs) != 5:
            raise ValueError("reduction chain stopped early")
        first, second = parse_output(outputs[0]), parse_output(outputs[1])
        d = item["d"]
        original = set(oracles.cnf_solutions(d, item["clauses"]).tolist())
        dims = [x - 1 for x in first["projection_dims"]]
        for cnf, drop in ((first["cnf"], dims),
                          (second["cnf"], dims + [x - 1 for x in second["projection_dims"]])):
            dd, clauses = oracles.parse_dimacs(cnf)
            back = oracles.project(oracles.cnf_solutions(dd, clauses), dd, drop)
            if back != original:
                raise ValueError("reduced formula does not project back to the original")
        _, last = oracles.parse_dimacs(second["cnf"])
        if any(len(c) > 3 or sum(x > 0 for x in c) > 2 or sum(x < 0 for x in c) > 2
               for c in last):
            raise ValueError("reduce322 output is not of clause shape (3,2,2)")
        profiles = [trimmed(parse_output(o)) for o in outputs[2:]]
        if profiles[1] != profiles[0] or profiles[2] != profiles[0]:
            raise ValueError(f"trimmed homology changed along the chain: {profiles}")


def trimmed(out: dict):
    betti, torsion = list(out["betti"]), list(out["torsion"])
    while betti and betti[-1] == 0 and not torsion[-1]:
        betti.pop()
        torsion.pop()
    return betti, torsion


# classify_relations: Schaefer classification of arity 8-9 relation sets.

def closed_relation(rng, arity: int, kind: str) -> set[int]:
    """A relation closed under majority (bijunctive: the models of a random
    2-CNF, 112..128 tuples) or under xor of triples (affine: a coset of a
    random 7-dimensional subspace, 128 tuples).  The closure loops cost
    |R|^3, so the sizes are kept close."""
    idx = np.arange(1 << arity, dtype=np.int64)
    if kind == "affine":
        dim = 7
        while True:
            basis = rng.integers(1, 1 << arity, size=dim).tolist()
            if oracles.gf2_rank(basis) == dim:
                break
        points = {int(rng.integers(0, 1 << arity))}
        for b in basis:
            points |= {p ^ b for p in points}
        return points
    while True:
        ok = np.ones(1 << arity, dtype=bool)
        while ok.sum() > 128:
            a, b = rng.choice(arity, size=2, replace=False)
            va, vb = rng.integers(0, 2, size=2)
            ok &= (((idx >> a) & 1) == va) | (((idx >> b) & 1) == vb)
        if ok.sum() >= 112:
            return set(np.flatnonzero(ok).tolist())


class ClassifyRelations(Workload):
    """Relation sets at arity 8-9: closed relations run the program's
    closure loops to the end, random ones make them exit early."""

    name = "classify_relations"
    # (build class of the closed relations, closed count, random count).
    # The closed relations carry the cost, and an affine one costs about 3/4
    # of a bijunctive one of the same size, so affine sets hold four.
    mixes = (("bijunctive", 3, 0), ("affine", 4, 0), ("bijunctive", 3, 2), ("affine", 4, 2))
    round_kinds = len(mixes)
    pool_rounds = 80
    trace_rounds = 50

    def build(self, seed, workdir):
        items = []
        for i in range(self.round_kinds * self.pool_rounds):
            kind, closed, random_count = self.mixes[i % self.round_kinds]
            rng = item_rng(seed, i)
            relations = []
            for j in range(closed + random_count):
                arity = 8 + (i + j) % 2
                if j < closed:
                    tuples = closed_relation(rng, arity, kind)
                else:
                    tuples = set(rng.choice(1 << arity, size=100, replace=False).tolist())
                relations.append((arity, tuples, j < closed))
            blocks = [f"rel R{j} {a}\n" + " ".join(oracles.bitstring(t, a) for t in sorted(ts))
                      for j, (a, ts, _) in enumerate(relations)]
            path = write(workdir / f"rels{i}.txt", "\n\n".join(blocks) + "\n")
            constants = (i // self.round_kinds) % 2 == 1
            argv = ["classify", path] + (["--constants"] if constants else [])
            items.append({"kind": kind, "relations": relations, "constants": constants,
                          "argvs": [argv]})
        return items

    def warmup(self, workdir):
        path = write(workdir / "warm.txt", "rel A 2\n00 01 11\n")
        return {"argvs": [["classify", path]]}

    def check(self, item, outputs):
        out = parse_output(outputs[0])
        flags = []
        for arity, tuples, closed in item["relations"]:
            f = oracles.relation_flags(arity, tuples)
            if closed and not f[item["kind"]]:
                raise ValueError(f"built {item['kind']} relation fails its own test")
            flags.append(f)
        witness = oracles.schaefer_witness(flags, item["constants"])
        if out != {"tractable": witness is not None, "witness": witness}:
            raise ValueError(f"verdict {out} != witness {witness}")


WORKLOADS = {w.name: w for w in (BettiRandom(), BettiTractable(), VerifySweep(),
                                 ClassifyRelations())}

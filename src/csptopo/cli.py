"""Command-line front end.

Subcommands: classify, solve, betti, project, reduce3, reduce322,
realize, verify.  Reports go to stdout (JSON by default), diagnostics to
stderr.  Exit codes: 0 success / all checks pass, 1 check failure,
2 input error, 3 resource-cap error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import (
    ReductionResult,
    parse_scomplex,
    simplicial_to_vertexset,
    to_3sat,
    to_322sat,
    vertexset_to_cnf,
)
from .cubical import FACE_MAX, induce_complex
from .errors import CspTopoError, ParseError, PreconditionError, ResourceLimitError
from .formula import Formula, emit_dimacs, parse_csp, parse_dimacs
from .homology import COEFFICIENTS, homology
from .relations import parse_relations, schaefer_classify
from .solution_space import (
    D_MAX,
    VertexSet,
    emit_vset,
    enumerate_solutions,
    parse_vset,
    project,
)
from . import verify as checks


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _sniff(text: str) -> str:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token = line.split()[0]
        if token in ("p", "c"):
            return "dimacs"
        if token in ("dim", "vset", "rel", "scomplex"):
            return {"dim": "csp", "vset": "vset", "rel": "relations",
                    "scomplex": "scomplex"}[token]
        raise ParseError(f"unrecognized file starting with {token!r}")
    raise ParseError("empty input file")


def _load_formula_or_vset(args) -> tuple[Formula | None, VertexSet | None]:
    text = _read(args.path)
    kind = _sniff(text)
    if kind == "dimacs":
        return parse_dimacs(text), None
    if kind == "csp":
        if not args.relations:
            raise ParseError("CSP input needs --relations <file>")
        table = parse_relations(_read(args.relations))
        return parse_csp(text, table, allow_constants=not args.no_constants), None
    if kind == "vset":
        return None, parse_vset(text)
    raise ParseError(f"expected a formula or vertex-set file, got {kind}")


def _dmax(args) -> int:
    if args.dmax is None:
        return D_MAX
    if not 1 <= args.dmax <= D_MAX:
        raise ParseError(f"--dmax must be in 1..{D_MAX} (downward override only)")
    return args.dmax


def _facemax(args) -> int:
    if args.facemax is None:
        return FACE_MAX
    if not 1 <= args.facemax <= FACE_MAX:
        raise ParseError(
            f"--facemax must be in 1..{FACE_MAX} (downward override only)"
        )
    return args.facemax


def _solutions(args) -> VertexSet:
    formula, vset = _load_formula_or_vset(args)
    if vset is not None:
        return vset
    return enumerate_solutions(formula, d_max=_dmax(args))


def cmd_classify(args) -> int:
    relations = parse_relations(_read(args.path))
    verdict = schaefer_classify(relations, with_constants=args.constants)
    payload = {"tractable": verdict.tractable, "witness": verdict.witness_condition}
    text = (
        f"tractable witness={verdict.witness_condition}"
        if verdict.tractable
        else "np-complete"
    )
    _emit(args, payload, text)
    return 0


def cmd_solve(args) -> int:
    vset = _solutions(args)
    payload = {
        "dimension": vset.dimension,
        "count": len(vset),
        "vertices": vset.bitstrings(),
    }
    _emit(args, payload, emit_vset(vset))
    return 0


def cmd_betti(args) -> int:
    vset = _solutions(args)
    complex_ = induce_complex(vset, face_max=_facemax(args))
    profile = homology(complex_, args.coeffs)
    payload = {
        "betti": list(profile.betti),
        "torsion": [list(t) for t in profile.torsion],
        "f": list(complex_.f_vector()),
    }
    text = (
        f"betti: {' '.join(map(str, profile.betti))}\n"
        f"torsion: {' '.join(str(list(t)) for t in profile.torsion)}\n"
        f"f: {' '.join(map(str, complex_.f_vector()))}"
    )
    _emit(args, payload, text)
    return 0


def _parse_dims(text: str, dimension: int) -> list[int]:
    dims = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"bad dimension {tok!r} in --dims") from None
        if not 1 <= value <= dimension:
            raise ParseError(f"--dims entry {value} out of range 1..{dimension}")
        dims.append(value - 1)
    return dims


def cmd_project(args) -> int:
    vset = _solutions(args)
    dims = _parse_dims(args.dims, vset.dimension)
    projected = project(vset, dims)
    payload = {
        "dimension": projected.dimension,
        "count": len(projected),
        "vertices": projected.bitstrings(),
    }
    _emit(args, payload, emit_vset(projected))
    return 0


def _emit_reduction(args, result: ReductionResult) -> None:
    cnf = emit_dimacs(result.formula)
    payload = {
        "cnf": cnf,
        "projection_dims": [d + 1 for d in result.projection_dims],
        "variable_map": [v + 1 for v in result.variable_map],
    }
    dims = " ".join(str(d + 1) for d in result.projection_dims)
    text = f"c projection_dims {dims}\n{cnf}"
    _emit(args, payload, text)


def cmd_reduce3(args) -> int:
    _emit_reduction(args, to_3sat(parse_dimacs(_read(args.path))))
    return 0


def cmd_reduce322(args) -> int:
    _emit_reduction(args, to_322sat(parse_dimacs(_read(args.path))))
    return 0


def cmd_realize(args) -> int:
    complex_ = parse_scomplex(_read(args.path))
    vset = simplicial_to_vertexset(complex_)
    formula = vertexset_to_cnf(vset)
    cnf = emit_dimacs(formula)
    _emit(args, {"cnf": cnf, "dimension": formula.dimension}, cnf)
    return 0


_CHECK_DEFAULTS = {
    # check: (flavor, dim_range, count_range, trials)
    "tractable-homology": ("two_sat", (2, 10), (1, 25), 200),
    "affine-structure": ("affine", (2, 12), (1, 8), 100),
    "wedge-union": ("two_sat", (3, 8), (1, 4), 100),
    "trivially-valid": (None, (2, 8), (1, 6), 50),
    "one-in-three": ("one_in_three", (3, 10), (1, 6), 100),
    "projection": ("two_sat", (2, 8), (1, 10), 200),
}


def _parse_range(text: str, fallback: tuple[int, int]) -> tuple[int, int]:
    if text is None:
        return fallback
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"expected lo:hi range, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"expected integer range, got {text!r}") from None


def cmd_verify(args) -> int:
    if args.check not in _CHECK_DEFAULTS:
        raise ParseError(f"unknown check {args.check!r}")
    default_flavor, dims, counts, trials = _CHECK_DEFAULTS[args.check]
    flavor = args.flavor or default_flavor
    trials = args.trials if args.trials is not None else trials
    params_kwargs = dict(
        dim_range=_parse_range(args.dims_range, dims),
        count_range=_parse_range(args.counts, counts),
        seed=args.seed,
    )

    if args.check == "trivially-valid":
        if not args.relations:
            raise ParseError("trivially-valid needs --relations <file>")
        table = parse_relations(_read(args.relations))
        params = checks.GeneratorParams(flavor="cnf(3)", **params_kwargs)
        report = checks.check_trivially_valid(params, table, trials)
    elif args.check == "wedge-union":
        params = checks.GeneratorParams(flavor=flavor, **params_kwargs)
        report = checks.check_wedge_union(params, args.wedges, trials)
    else:
        params = checks.GeneratorParams(flavor=flavor, **params_kwargs)
        runner = {
            "tractable-homology": checks.check_tractable_homology,
            "affine-structure": checks.check_affine_structure,
            "one-in-three": checks.check_one_in_three_structure,
            "projection": checks.check_projection_constructions,
        }[args.check]
        report = runner(params, trials)

    text_lines = [
        f"check {report.check} trials={report.trials} "
        f"failures={len(report.failures)} seed={report.seed} ms={report.elapsed_ms}"
    ]
    for failure in report.failures[:5]:
        text_lines.append(f"  expected {failure.expected}; observed {failure.observed}")
    _emit(args, report.to_json_dict(), "\n".join(text_lines))
    return 0 if report.passed else 1


# parse_args reads the parser and writes only the namespace it returns, so
# every main call in a process can share one parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csptopo",
        description="Topology of boolean CSP solution spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("classify", cmd_classify, "classify a relation set")
    p.add_argument("path")
    p.add_argument("--constants", action="store_true",
                   help="classify with constants allowed (conditions 3-6)")

    for name, func, help_ in (
        ("solve", cmd_solve, "enumerate the solution set of a formula"),
        ("betti", cmd_betti, "homology profile and f-vector of a solution space"),
        ("project", cmd_project, "project a solution set onto fewer dimensions"),
    ):
        p = add(name, func, help_)
        p.add_argument("path")
        p.add_argument("--relations", help="relation file for CSP inputs")
        p.add_argument("--no-constants", action="store_true")
        p.add_argument("--dmax", type=int, default=None)
        if name == "betti":
            p.add_argument("--coeffs", choices=COEFFICIENTS, default="Z")
            p.add_argument("--facemax", type=int, default=None)
        if name == "project":
            p.add_argument("--dims", required=True,
                           help="comma-separated 1-based dimensions to remove")

    p = add("reduce3", cmd_reduce3, "split clauses into the 3-CNF chain")
    p.add_argument("path")
    p = add("reduce322", cmd_reduce322, "rewrite a 3-CNF to clause shape (3,2,2)")
    p.add_argument("path")
    p = add("realize", cmd_realize, "CNF whose solution complex realizes a"
                                    " simplicial complex")
    p.add_argument("path")

    p = add("verify", cmd_verify, "run an empirical check")
    p.add_argument("check", help="one of: " + ", ".join(sorted(_CHECK_DEFAULTS)))
    p.add_argument("--flavor")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims-range", dest="dims_range", default=None,
                   help="lo:hi dimension range")
    p.add_argument("--counts", default=None, help="lo:hi constraint count range")
    p.add_argument("--wedges", type=int, default=2,
                   help="wedge count n for wedge-union")
    p.add_argument("--relations", help="relation file for trivially-valid")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles --help / usage errors
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error:input: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"error:resource: {err}", file=sys.stderr)
        return 3
    except PreconditionError as err:
        print(f"error:input: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, CspTopoError) as err:
        print(f"error:input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

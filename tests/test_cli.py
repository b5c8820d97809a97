import json
import math
import random
from collections import Counter

import pytest

from csptopo import (
    GeneratorParams,
    VertexSet,
    emit_dimacs,
    emit_vset,
    homology,
    induce_complex,
    random_formula,
    simplicial_to_vertexset,
)
from csptopo.bits import index_to_bits
from csptopo.cli import main
from csptopo.relations import PAIR_MAX

from conftest import FIG1_DIMACS
from oracles import naive_faces, naive_solutions


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cnf"
    path.write_text(FIG1_DIMACS)
    return str(path)


@pytest.fixture
def xor2_path(tmp_path):
    path = tmp_path / "relations.txt"
    path.write_text("rel XOR2 2\n01 10\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_fig1_exact_bytes(capsys, fig1_path):
    code, out, _ = run(capsys, "betti", fig1_path, "--coeffs", "Z")
    assert code == 0
    assert out == '{"betti":[1,1],"torsion":[[],[]],"f":[6,6]}\n'


def _betti_inputs(projective_plane):
    """Seeded vertex sets and Horn / 2-SAT CNFs at d=4..9, as (file name,
    text, vertex set); the realized projective plane adds torsion."""
    plane = simplicial_to_vertexset(projective_plane)
    inputs = [("plane.vset", emit_vset(plane), plane)]
    rng = random.Random(41)
    for d in range(4, 10):
        density = rng.uniform(0.45, 0.8)
        vset = VertexSet(d, frozenset(v for v in range(1 << d) if rng.random() < density))
        inputs.append((f"set{d}.vset", emit_vset(vset), vset))
    for trial, flavor in enumerate(("horn", "two_sat") * 3):
        formula = random_formula(GeneratorParams(flavor, (4, 9), (3, 8), seed=43), trial)
        vset = VertexSet(formula.dimension, frozenset(naive_solutions(formula)))
        inputs.append((f"{flavor}{trial}.cnf", emit_dimacs(formula), vset))
    return inputs


def test_betti_json_matches_unreduced_homology_and_naive_faces(
    capsys, tmp_path, projective_plane
):
    for name, text, vset in _betti_inputs(projective_plane):
        path = tmp_path / name
        path.write_text(text)
        dims = Counter(face.dim for face in naive_faces(vset.members, vset.dimension))
        fvec = [dims[p] for p in range(len(dims))]
        for coeffs in ("Z", "Q", "Z2"):
            profile = homology(induce_complex(vset), coeffs, reduce=False)
            payload = {
                "betti": list(profile.betti),
                "torsion": [list(t) for t in profile.torsion],
                "f": fvec,
            }
            expected = json.dumps(payload, separators=(",", ":")) + "\n"
            assert run(capsys, "betti", str(path), "--coeffs", coeffs) == (0, expected, "")


def test_betti_deterministic(capsys, fig1_path):
    _, first, _ = run(capsys, "betti", fig1_path)
    _, second, _ = run(capsys, "betti", fig1_path)
    assert first == second


def test_classify_xor2(capsys, xor2_path):
    code, out, _ = run(capsys, "classify", xor2_path, "--constants")
    assert code == 0
    payload = json.loads(out)
    # XOR2 is majority-closed as well as affine; the witness is the first
    # condition in classification order that all relations satisfy.
    assert payload == {"tractable": True, "witness": "bijunctive"}

    code, out, _ = run(capsys, "classify", xor2_path, "--format", "text")
    assert code == 0 and "tractable" in out


def test_classify_nae_np_complete(capsys, tmp_path):
    path = tmp_path / "nae.txt"
    path.write_text("rel NAE 3\n001 010 011 100 101 110\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out) == {"tractable": False, "witness": None}


def test_solve_text_output(capsys, fig1_path):
    code, out, _ = run(capsys, "solve", fig1_path, "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "vset 3"
    assert "001" in out and "000" not in out


def test_betti_on_solve_output_matches(capsys, tmp_path, fig1_path):
    _, vset_text, _ = run(capsys, "solve", fig1_path, "--format", "text")
    vset_path = tmp_path / "sols.vset"
    vset_path.write_text(vset_text)
    _, direct, _ = run(capsys, "betti", fig1_path)
    _, via_vset, _ = run(capsys, "betti", str(vset_path))
    assert direct == via_vset


def test_project_command(capsys, fig1_path):
    code, out, _ = run(capsys, "project", fig1_path, "--dims", "3")
    assert code == 0
    assert json.loads(out)["vertices"] == ["00", "01", "10", "11"]


def test_csp_input_needs_relations(capsys, tmp_path):
    csp = tmp_path / "inst.csp"
    csp.write_text("dim 3\nNAE v1 v2 v3\n")
    code, _, err = run(capsys, "solve", str(csp))
    assert code == 2 and "error:input" in err

    rels = tmp_path / "rels.txt"
    rels.write_text("rel NAE 3\n001 010 011 100 101 110\n")
    code, out, _ = run(capsys, "solve", str(csp), "--relations", str(rels))
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_reduce3_pipeline(capsys, tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 4 1\n1 2 3 4 0\n")
    code, out, _ = run(capsys, "reduce3", str(cnf))
    assert code == 0
    payload = json.loads(out)
    assert payload["projection_dims"] == [5]
    assert payload["cnf"].startswith("p cnf 5 2")

    reduced = tmp_path / "reduced.cnf"
    reduced.write_text(payload["cnf"])
    code, out, _ = run(capsys, "reduce322", str(reduced))
    assert code == 0


def test_reduce322_rejects_wide_input(capsys, tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 4 1\n1 2 3 4 0\n")
    code, _, err = run(capsys, "reduce322", str(cnf))
    assert code == 2 and "error:input" in err


def test_realize_round_trip(capsys, tmp_path):
    scx = tmp_path / "triangle.scx"
    scx.write_text("scomplex 3\n1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "realize", str(scx), "--format", "text")
    assert code == 0
    cnf = tmp_path / "realized.cnf"
    cnf.write_text(out)
    code, out, _ = run(capsys, "betti", str(cnf))
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


def test_betti_torsion_of_realized_projective_plane(capsys, tmp_path):
    scx = tmp_path / "plane.scx"
    scx.write_text(
        "scomplex 6\n1 2 5\n1 2 6\n1 3 4\n1 3 5\n1 4 6\n"
        "2 3 4\n2 3 6\n2 4 5\n3 5 6\n4 5 6\n"
    )
    _, cnf_text, _ = run(capsys, "realize", str(scx), "--format", "text")
    cnf = tmp_path / "plane.cnf"
    cnf.write_text(cnf_text)
    code, out, _ = run(capsys, "betti", str(cnf))
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 0, 0]
    assert payload["torsion"] == [[], [2], []]


def test_verify_pass_and_fail_exit_codes(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "tractable-homology",
        "--flavor", "horn", "--trials", "20", "--seed", "7",
        "--dims-range", "2:6", "--counts", "1:10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "tractable-homology"
    assert payload["failures"] == []
    assert payload["seed"] == 7

    code, _, err = run(capsys, "verify", "no-such-check")
    assert code == 2 and "error:input" in err


def test_verify_trivially_valid_needs_relations(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "trivially-valid")
    assert code == 2
    rels = tmp_path / "r0.txt"
    rels.write_text("rel R0 3\n000 110 101\n")
    code, out, _ = run(
        capsys, "verify", "trivially-valid", "--relations", str(rels),
        "--trials", "10",
    )
    assert code == 0


def test_verify_wedge_union_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "wedge-union", "--flavor", "two_sat",
        "--wedges", "2", "--trials", "15", "--dims-range", "3:6",
    )
    assert code == 0
    assert json.loads(out)["check"] == "wedge-union"


def test_resource_cap_exit_code(capsys, fig1_path):
    code, _, err = run(capsys, "betti", fig1_path, "--facemax", "3")
    assert code == 3 and "error:resource" in err


def test_classify_over_pair_cap_exits_3(capsys, tmp_path):
    count = math.isqrt(2 * PAIR_MAX) + 2
    arity = count.bit_length()
    path = tmp_path / "big.txt"
    path.write_text(f"rel BIG {arity}\n"
                    + "\n".join(index_to_bits(t, arity) for t in range(count)) + "\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 3 and "error:resource" in err


def test_cap_overrides_are_downward_only(capsys, fig1_path):
    code, _, err = run(capsys, "betti", fig1_path, "--dmax", "50")
    assert code == 2 and "error:input" in err


def test_unreadable_file(capsys):
    code, _, err = run(capsys, "betti", "/nonexistent/path.cnf")
    assert code == 2 and "error:input" in err


def test_usage_error_returns_nonzero(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "csptopo" in captured.out

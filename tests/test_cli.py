import json
from pathlib import Path

import pytest

from schuralg.cli import main
from schuralg.formats import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKED_LEFT = "2,0,0;1,0,2;0,0,0"
WORKED_RIGHT = "1,0,0;1,1,0;0,2,0"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("idempotents_n2_d3.txt", ("idempotents", "--n", "2", "--d", "3")),
        ("idempotents_n2_d3.json",
         ("idempotents", "--n", "2", "--d", "3", "--output", "json")),
        ("idempotents_n2_d3_shape_2_1.txt",
         ("idempotents", "--n", "2", "--d", "3", "--shape", "2,1")),
        ("idempotents_n2_d3_shape_2_1.json",
         ("idempotents", "--n", "2", "--d", "3", "--shape", "2,1", "--output", "json")),
        ("graph_worked_left.dot", ("graph", WORKED_LEFT)),
        ("multiply_worked_pair.dot",
         ("multiply", WORKED_LEFT, WORKED_RIGHT, "--output", "dot")),
        ("multiply_worked_pair_euler.txt",
         ("multiply", WORKED_LEFT, WORKED_RIGHT, "--show-euler")),
        ("multiply_worked_pair_euler.json",
         ("multiply", WORKED_LEFT, WORKED_RIGHT, "--show-euler", "--output", "json")),
    ],
)
def test_output_matches_golden(capsys, golden, argv):
    """Stdout is byte-identical to the recorded output of the same command."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_dim_text(capsys):
    code, out, _ = run_cli(capsys, "dim", "--n", "2", "--d", "2")
    assert code == 0
    assert "|M(2,2)| = 10" in out
    assert "centre dimension = 2" in out


def test_dim_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dim", "--n", "2", "--d", "3", "--output", "json")
    assert code == 0
    text = out.strip()
    payload = json.loads(text)
    assert canonical_json(payload) == text
    assert payload["basis_size"] == 20
    assert payload["centre_dimension"] == 2


def test_basis_lists_every_matrix(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "2", "--d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert "2,0;0,0" in lines


def test_multiply_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "multiply", "2,0,0;1,0,2;0,0,0", "1,0,0;1,1,0;0,2,0"
    )
    assert code == 0
    assert "product = [1,0,0;1,0,1;1,0,1] + 2*[1,0,0;2,0,0;0,0,2]" in out


def test_multiply_lists_classes_only_when_shown(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("matching classes listed but not shown")

    monkeypatch.setattr("schuralg.cli.euler_classes", refuse)
    code, out, _ = run_cli(capsys, "multiply", WORKED_LEFT, WORKED_RIGHT)
    assert code == 0
    assert "product = [1,0,0;1,0,1;1,0,1] + 2*[1,0,0;2,0,0;0,0,2]" in out


def test_multiply_show_euler(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiply", "2,0,0;1,0,2;0,0,0", "1,0,0;1,1,0;0,2,0", "--show-euler",
    )
    assert code == 0
    assert "euler classes: 2" in out
    assert "multiplicity 2" in out
    assert "multiplicity 1" in out


def test_multiply_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiply", "2,0,0;1,0,2;0,0,0", "1,0,0;1,1,0;0,2,0",
        "--show-euler", "--output", "json",
    )
    assert code == 0
    text = out.strip()
    payload = json.loads(text)
    assert canonical_json(payload) == text
    coeffs = {
        tuple(tuple(r) for r in term["matrix"]): term["coeff"]
        for term in payload["product"]["terms"]
    }
    assert coeffs[((1, 0, 0), (2, 0, 0), (0, 0, 2))] == "2"
    assert coeffs[((1, 0, 0), (1, 0, 1), (1, 0, 1))] == "1"
    assert len(payload["euler_classes"]) == 2


def test_multiply_dot_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiply", "2,0;0,0", "1,0;1,0", "--output", "dot",
    )
    assert code == 0
    assert "graph matching_0 {" in out


def test_multiply_deterministic(capsys):
    args = ("multiply", "2,0,0;1,0,2;0,0,0", "1,0,0;1,1,0;0,2,0", "--output", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_centre_reproduces_expansions(capsys):
    code, out, _ = run_cli(capsys, "centre", "--n", "2", "--d", "4")
    assert code == 0
    assert out.strip().splitlines() == [
        "Z[4] = 6*[0,0;0,4] + 2*[0,1;1,2] + 2*[0,2;2,0] + [1,1;1,1] + 2*[2,1;1,0] + 6*[4,0;0,0]",
        "Z[3,1] = 8*[0,0;0,4] + 2*[0,1;1,2] + 2*[1,0;0,3] + 2*[1,1;1,1] + 2*[2,1;1,0] + 2*[3,0;0,1] + 8*[4,0;0,0]",
        "Z[2,2] = 3*[0,0;0,4] + [0,1;1,2] + 2*[0,2;2,0] + [2,0;0,2] + [2,1;1,0] + 3*[4,0;0,0]",
        "Z[2,1,1] = 6*[0,0;0,4] + [0,1;1,2] + 3*[1,0;0,3] + [1,1;1,1] + 2*[2,0;0,2] + [2,1;1,0] + 3*[3,0;0,1] + 6*[4,0;0,0]",
        "Z[1,1,1,1] = [0,0;0,4] + [1,0;0,3] + [2,0;0,2] + [3,0;0,1] + [4,0;0,0]",
    ]


def test_centre_shape_filter(capsys):
    code, out, _ = run_cli(capsys, "centre", "--n", "2", "--d", "4", "--shape", "2,2")
    assert code == 0
    assert out.strip().splitlines() == [
        "Z[2,2] = 3*[0,0;0,4] + [0,1;1,2] + 2*[0,2;2,0] + [2,0;0,2] + [2,1;1,0] + 3*[4,0;0,0]"
    ]


def test_shape_filter_rejects_non_partition(capsys):
    code, _, err = run_cli(capsys, "centre", "--n", "2", "--d", "4", "--shape", "3,2")
    assert code == 2
    assert "usage error" in err


def test_idempotents_shape_filter(capsys):
    code, out, _ = run_cli(
        capsys, "idempotents", "--n", "2", "--d", "4", "--shape", "4"
    )
    assert code == 0
    assert "idempotent: True" in out
    assert "orthogonal" not in out


def test_idempotents_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "--n", "2", "--d", "4")
    assert code == 0
    assert "idempotent: True" in out
    assert "orthogonal: True" in out
    assert "sums to identity: True" in out
    assert "e[2,1,1] = 0" in out


def test_character_table_json(capsys):
    code, out, _ = run_cli(capsys, "character-table", "--d", "4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["partitions"][0] == [4]
    assert payload["class_sizes"] == [6, 8, 3, 6, 1]
    assert payload["table"][0] == [1, 1, 1, 1, 1]
    assert payload["table"][-1] == [-1, 1, 1, -1, 1]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--d", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS  oracle-equivalence" in out


def test_verify_skips_oracle_when_guarded(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--d", "3", "--max-tensor-dim", "4"
    )
    assert code == 0
    assert "SKIP  oracle-equivalence" in out


def test_verify_ignores_guard_env(capsys, monkeypatch):
    # --max-tensor-dim is the guard's only source; the environment is not read
    monkeypatch.setenv("SCHUR_MAX_TENSOR_DIM", "4")
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--d", "3")
    assert code == 0
    assert "PASS  oracle-equivalence" in out


@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_rejects_nonpositive_guard_flag(capsys, value):
    code, out, err = run_cli(
        capsys, "verify", "--n", "2", "--d", "3", "--max-tensor-dim", value
    )
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_graph_renders_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "2,0,0;1,0,2;0,0,0")
    assert code == 0
    assert out.splitlines().count("  s1 -- d1;") == 2
    assert out.splitlines().count("  s3 -- d2;") == 2


def test_usage_error_on_malformed_matrix(capsys):
    code, _, err = run_cli(capsys, "multiply", "2,0;oops", "1,0;0,1")
    assert code == 2
    assert "usage error" in err


def test_usage_error_on_mismatched_operands(capsys):
    code, _, err = run_cli(capsys, "multiply", "2,0;0,0", "1,0,0;0,1,0;0,0,1")
    assert code == 2


def test_usage_error_on_missing_arguments(capsys):
    code, _, _ = run_cli(capsys, "dim", "--n", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("dim", "--n", "0", "--d", "2"), ("dim", "--n", "2", "--d", "-1"),
     ("character-table", "--d", "-1")],
    ids=["dim-n0", "dim-d-1", "character-table-d-1"],
)
def test_invalid_size_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [("dim", "--n", "2", "--d", "2", "--max-tensor-dim", "-5"),
     ("idempotents", "--n", "2", "--d", "2", "--max-tensor-dim", "100")]
    + [(cmd, "--n", "2", "--d", "2", "--output", "dot")
       for cmd in ("dim", "basis", "centre", "idempotents", "verify")],
    ids=["dim-max-tensor-dim", "idempotents-max-tensor-dim"]
    + [f"{cmd}-dot" for cmd in ("dim", "basis", "centre", "idempotents", "verify")],
)
def test_option_not_read_by_command_is_refused(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_resource_error_on_large_n(capsys):
    code, _, err = run_cli(capsys, "dim", "--n", "7", "--d", "2")
    assert code == 3
    assert "resource error" in err


def test_resource_error_on_large_d(capsys):
    code, _, _ = run_cli(capsys, "centre", "--n", "2", "--d", "9")
    assert code == 3

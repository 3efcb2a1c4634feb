import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schuralg
from schuralg import verification
from schuralg.basis import SchurElement
from schuralg.cli import build_parser, main
from schuralg.formats import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
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
        ("centre_n3_d3.json", ("centre", "--n", "3", "--d", "3", "--output", "json")),
        ("idempotents_n3_d3.json",
         ("idempotents", "--n", "3", "--d", "3", "--output", "json")),
        ("basis_n2_d3.json", ("basis", "--n", "2", "--d", "3", "--output", "json")),
        ("verify_n2_d3.json", ("verify", "--n", "2", "--d", "3", "--output", "json")),
        ("verify_n2_d6.json", ("verify", "--n", "2", "--d", "6", "--output", "json")),
        ("dim_n3_d4.json", ("dim", "--n", "3", "--d", "4", "--output", "json")),
        ("dim_n2_d4.txt", ("dim", "--n", "2", "--d", "4")),
        ("basis_n2_d2.txt", ("basis", "--n", "2", "--d", "2")),
        ("multiply_worked_pair.txt", ("multiply", WORKED_LEFT, WORKED_RIGHT)),
        ("multiply_worked_pair.json",
         ("multiply", WORKED_LEFT, WORKED_RIGHT, "--output", "json")),
        ("centre_n2_d4.txt", ("centre", "--n", "2", "--d", "4")),
        ("centre_n2_d4_shape_2_1_1.json",
         ("centre", "--n", "2", "--d", "4", "--shape", "2,1,1", "--output", "json")),
        ("character_table_d4.txt", ("character-table", "--d", "4")),
        ("character_table_d4.json", ("character-table", "--d", "4", "--output", "json")),
        ("graph_worked_left.json", ("graph", WORKED_LEFT, "--output", "json")),
        ("verify_n2_d3.txt", ("verify", "--n", "2", "--d", "3")),
        ("verify_n3_d3.txt", ("verify", "--n", "3", "--d", "3")),
        ("verify_n3_d3.json", ("verify", "--n", "3", "--d", "3", "--output", "json")),
        # the shape literal as the command prints it, e[2,1]
        ("idempotents_n2_d3_shape_2_1.txt",
         ("idempotents", "--n", "2", "--d", "3", "--shape", "[2,1]")),
        ("idempotents_n2_d3_shape_2_1.json",
         ("idempotents", "--n", "2", "--d", "3", "--shape", "[2,1]", "--output", "json")),
    ],
)
def test_output_matches_golden(capsys, golden, argv):
    """Stdout is byte-identical to the recorded output of the same command."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("idempotents_n2_d3.json",
         ("idempotents", "--n", "2", "--d", "3", "--output", "json")),
        ("centre_n3_d3.json", ("centre", "--n", "3", "--d", "3", "--output", "json")),
        ("basis_n2_d3.json", ("basis", "--n", "2", "--d", "3", "--output", "json")),
    ],
)
def test_json_output_formats_no_text(capsys, monkeypatch, golden, argv):
    """JSON output never renders the text lines it does not print."""

    def refuse(*args):
        raise RuntimeError("text rendered for JSON output")

    monkeypatch.setattr("schuralg.cli.format_element", refuse)
    monkeypatch.setattr("schuralg.cli.format_matrix", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("centre_n2_d4.txt", ("centre", "--n", "2", "--d", "4")),
        ("idempotents_n2_d3.txt", ("idempotents", "--n", "2", "--d", "3")),
        ("idempotents_n2_d3_shape_2_1.txt",
         ("idempotents", "--n", "2", "--d", "3", "--shape", "2,1")),
    ],
)
def test_text_output_builds_no_payload(capsys, monkeypatch, golden, argv):
    """Text output never builds the JSON payload it does not print."""

    def refuse(*args):
        raise RuntimeError("JSON payload built for text output")

    monkeypatch.setattr("schuralg.cli.element_to_json", refuse)
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


def test_dim_reports_centre_within_enumeration_cap(capsys):
    # 6435 matrices: the centre rank reads only the square weight blocks
    code, out, _ = run_cli(capsys, "dim", "--n", "3", "--d", "7", "--output", "json")
    assert code == 0
    assert json.loads(out)["centre_dimension"] == 8


def test_dim_reports_centre_above_enumeration_cap(capsys):
    # 593775 matrices, over the cap that centre and idempotents keep
    code, out, _ = run_cli(capsys, "dim", "--n", "5", "--d", "6", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["basis_size"], payload["centre_dimension"]) == (593775, 10)
    code, out, _ = run_cli(capsys, "dim", "--n", "5", "--d", "6")
    assert code == 0
    assert out.splitlines() == ["|M(5,6)| = 593775", "centre dimension = 10"]
    assert "skipped" not in out


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


def test_multiply_dot_does_not_compute_product(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("product computed but not printed")

    monkeypatch.setattr("schuralg.cli.multiply", refuse)
    code, out, _ = run_cli(capsys, "multiply", WORKED_LEFT, WORKED_RIGHT, "--output", "dot")
    assert code == 0
    assert out == (GOLDEN / "multiply_worked_pair.dot").read_text()


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


@pytest.mark.parametrize("output", ["text", "json"])
def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch, output):
    # one coefficient of every nonzero product is off by one, so the
    # structure-constants check, and only it, fails
    real = verification._uncached_product

    def bumped(Dx, Dy):
        product = real(Dx, Dy)
        return product and ((product[0][0], product[0][1] + 1), *product[1:])

    monkeypatch.setattr(verification, "_uncached_product", bumped)
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--d", "2", "--output", output)
    assert code == 1
    if output == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  structure-constants (triple ")
    else:
        results = json.loads(out)["results"]
        assert [r["name"] for r in results if r["status"] == "fail"] == ["structure-constants"]


@pytest.mark.parametrize("output", ["text", "json"])
def test_idempotents_exits_1_when_only_the_law_product_fails(capsys, monkeypatch, output):
    # a product that is not bilinear: zero when a coefficient exceeds 10^6,
    # as in the law product's weighted sums, right on every idempotent
    real = verification.multiply

    def patched(x, y):
        if any(abs(c) > 10**6 for z in (x, y) for c in z.terms.values()):
            return SchurElement.zero(2, 3)
        return real(x, y)

    monkeypatch.setattr(verification, "multiply", patched)
    code, out, _ = run_cli(capsys, "idempotents", "--n", "2", "--d", "3", "--output", output)
    assert code == 1
    if output == "text":
        assert out.splitlines()[-3:] == [
            "idempotent: False", "orthogonal: False", "sums to identity: True"
        ]
    else:
        assert json.loads(out)["checks"] == {
            "idempotent": False, "orthogonal": False, "resolution_of_identity": True
        }


def test_centre_workload_in_one_process():
    # the benchmark's centre job runs these two commands in one interpreter;
    # a memo shared across (n, d) would change the second command's output
    src = str(Path(schuralg.__file__).resolve().parent.parent)
    code = (
        "from schuralg.cli import main\n"
        "for argv in (['idempotents', '--n', '3', '--d', '6'], ['dim', '--n', '2', '--d', '8']):\n"
        "    assert main(argv + ['--output', 'json']) == 0\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "".join(
        (GOLDEN / name).read_text() for name in ("idempotents_n3_d6.json", "dim_n2_d8.json")
    )


def test_verify_skips_oracle_when_guarded(capsys, monkeypatch):
    monkeypatch.setattr("schuralg.oracle.DEFAULT_MAX_TENSOR_DIM", 4)
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--d", "3")
    assert code == 0
    assert "SKIP  oracle-equivalence" in out


def test_verify_ignores_guard_env(capsys, monkeypatch):
    # DEFAULT_MAX_TENSOR_DIM is the guard's only source; the environment is not read
    monkeypatch.setenv("SCHUR_MAX_TENSOR_DIM", "4")
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--d", "3")
    assert code == 0
    assert "PASS  oracle-equivalence" in out


def test_graph_renders_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "2,0,0;1,0,2;0,0,0")
    assert code == 0
    assert out.splitlines().count("  s1 -- d1;") == 2
    assert out.splitlines().count("  s3 -- d2;") == 2


def test_usage_error_on_malformed_matrix(capsys):
    code, _, err = run_cli(capsys, "multiply", "2,0;oops", "1,0;0,1")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv",
    [("graph", "\u0663,0;0,0"), ("multiply", "1_0,0;0,0", "1,0;0,1"),
     ("centre", "--n", "2", "--d", "2", "--shape", "+2")],
    ids=["graph-arabic-indic-digit", "multiply-underscore", "centre-plus-sign"],
)
def test_usage_error_on_non_ascii_digit_literal(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "malformed" in err


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
     ("idempotents", "--n", "2", "--d", "2", "--max-tensor-dim", "100"),
     ("verify", "--n", "2", "--d", "2", "--max-tensor-dim", "4")]
    + [(cmd, "--n", "2", "--d", "2", "--output", "dot")
       for cmd in ("dim", "basis", "centre", "idempotents", "verify")],
    ids=["dim-max-tensor-dim", "idempotents-max-tensor-dim", "verify-max-tensor-dim"]
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


@pytest.mark.parametrize(
    "argv, code, prefix",
    [(("centre", "--n", "5", "--d", "6"), 3, "resource error: "),
     (("character-table", "--d", "9"), 3, "resource error: "),
     (("multiply", "1,0;0,0", "1,0;0,0", "--n", "3"), 2, "usage error: "),
     (("multiply", "1,0;0,0", "1,0;0,0", "--d", "2"), 2, "usage error: ")],
    ids=["centre-over-cap", "character-table-d9", "multiply-n-mismatch",
         "multiply-d-mismatch"],
)
def test_refused_before_dispatch(capsys, argv, code, prefix):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith(prefix)


def _readme_options() -> dict[str, tuple[list[str], dict]]:
    """Command -> (positional names, {option: --output choices or None}), read
    from the option table under "Formats and flags" in the README."""
    table = {}
    for row in README.read_text().splitlines():
        cells = row.split("|")
        if len(cells) != 4 or not cells[1].strip().startswith("`"):
            continue
        options = {
            opt: tuple(choices.split(",")) if choices else None
            for opt, choices in re.findall(r"`(--[a-z-]+)(?: \{([a-z,]+)\})?`", cells[2])
        }
        for usage in re.findall(r"`([^`]+)`", cells[1]):
            name, *positionals = usage.split()
            table[name] = (positionals, options)
    return table


def _parser_options() -> dict[str, tuple[list[str], dict]]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, command in sub.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        table[name] = (
            [a.dest.upper() for a in actions if not a.option_strings],
            {a.option_strings[0]: tuple(a.choices) if a.choices else None
             for a in actions if a.option_strings},
        )
    return table


def test_options_match_readme_table():
    """Each command's option strings (and --output choices) are the ones the
    README's "Formats and flags" table lists for it."""
    assert _readme_options() == _parser_options()

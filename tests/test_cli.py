import json
import subprocess
import sys

import pytest

from corrqec import cli
from corrqec.checks import closed_form_agreement
from corrqec.cli import main
from corrqec.errors import (
    CapacityError,
    DimensionError,
    ParameterError,
    UnsupportedPairError,
)
from corrqec.sweep import CSV_HEADER, THRESHOLD_CSV_HEADER, parse_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fidelity_csv_header_and_shape(capsys, tmp_path):
    path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(
        capsys,
        "fidelity", "--model", "2", "--scheme", "dfs2,bit3,concat6",
        "--p", "0.1", "--mu-range", "0:1:101", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "model,scheme,mu,p,fidelity_numeric,fidelity_closed_form,abs_diff,failure_prob"
    assert len(lines) == 1 + 303
    # scheme-major ordering, as requested
    assert lines[1].split(",")[1] == "dfs2"
    assert lines[102].split(",")[1] == "bit3"
    assert lines[203].split(",")[1] == "concat6"


def test_fidelity_deterministic_output(capsys, tmp_path):
    args = (
        "fidelity", "--model", "1", "--scheme", "dfs2,bit3",
        "--p-range", "0:0.5:3", "--mu-range", "0:1:5",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, *args, "--output", str(a))
    run_cli(capsys, *args, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_fidelity_trivial_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3", "--p", "0", "--mu", "0.5"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "bit3"
    assert float(fields[4]) == 1.0


def test_fidelity_dfs_row_value(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "dfs2", "--p", "0.1", "--mu", "0.5"
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert abs(float(fields[4]) - 0.91) < 1e-10
    assert abs(float(fields[7]) - 0.09) < 1e-10


def test_fidelity_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "fidelity", "--model", "2", "--scheme", "unencoded,dfs2",
        "--p", "0.1", "--mu", "0.5", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["scheme"] == "unencoded"
    assert rows[0]["fidelity_closed_form"] is None
    assert rows[0]["abs_diff"] is None
    assert abs(rows[0]["fidelity_numeric"] - 0.9) < 1e-10
    assert set(rows[1]) == {
        "model", "scheme", "mu", "p",
        "fidelity_numeric", "fidelity_closed_form", "abs_diff", "failure_prob",
    }


def test_fidelity_unsupported_closed_form_is_empty_not_error(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "unencoded", "--p", "0.2", "--mu", "0"
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[5] == "" and fields[6] == ""


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "fidelity", "--model", "1", "--scheme", "bit3", "--mu", "0.5")
    assert code == 2 and "p" in err
    code, _, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3", "--p", "2", "--mu", "0.5"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bogus", "--p", "0.1", "--mu", "0.5"
    )
    assert code == 2 and "bogus" in err
    code, _, err = run_cli(
        capsys,
        "fidelity", "--model", "1", "--scheme", "bit3", "--p-range", "0:1", "--mu", "0.5",
    )
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--model", "3", "--scheme", "bit3", "--p", "0.1", "--mu", "0.5"])
    assert exc.value.code == 2


def test_threshold_command(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--model", "2", "--scheme", "dfs2,bit3,concat6", "--p", "0.1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == THRESHOLD_CSV_HEADER
    dfs_fields = lines[1].split(",")
    assert dfs_fields[1] == "dfs2" and dfs_fields[4] == "above"
    assert abs(float(dfs_fields[3]) - 4 / 9) < 1e-6
    assert dfs_fields[5].startswith("0.444444444444:1")
    bit_fields = lines[2].split(",")
    assert bit_fields[4] == "below"
    assert abs(float(bit_fields[3]) - 0.2963) < 1e-4
    conc_fields = lines[3].split(",")
    assert conc_fields[4] == "all" and conc_fields[3] == "" and conc_fields[5] == "0:1"


def test_threshold_model1_band_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "threshold", "--model", "1", "--scheme", "concat6,bit3",
        "--p", "0.1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["branch"] == "outside" and len(rows[0]["regions"]) == 2
    assert rows[1]["branch"] == "all" and rows[1]["regions"] == [[0.0, 1.0]]


def test_threshold_p_grid(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--model", "2", "--scheme", "dfs2", "--p-range", "0.05:0.45:5"
    )
    assert code == 0
    assert len(out.splitlines()) == 6


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "5")
    assert code == 0
    assert "[PASS] closed-form" in out
    assert "all 9 suite(s) passed" in out


def test_verify_injected_error_names_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "3", "--suite", "closed-form",
        "--inject-error", "concat6-model1",
    )
    assert code == 1
    assert "[FAIL] closed-form" in out
    assert "concat6-model1" in out


def test_inject_error_must_name_a_published_closed_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "closed-form", "--grid", "2",
              "--inject-error", "concat6-model3"])
    assert exc.value.code == 2
    with pytest.raises(ParameterError):
        closed_form_agreement(2, inject="concat6-model3")


def test_inject_error_needs_the_closed_form_suite(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "endpoints", "--inject-error", "concat6-model1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_single_suite_census(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "correctable")
    assert code == 0
    assert "{0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}" in out


def test_correctable_listing(capsys):
    code, out, _ = run_cli(capsys, "correctable", "--scheme", "concat6")
    assert code == 0
    assert "correctable set: 32 operators" in out
    assert "weight 2 (9): X1X4 X1X5 X1X6 X2X4 X2X5 X2X6 X3X4 X3X5 X3X6" in out
    assert "non-detectable (2): X1X2X3 X4X5X6" in out
    assert "recovery operators: 16 + complement of dimension 32" in out

    code, out, _ = run_cli(capsys, "correctable", "--scheme", "bit3")
    assert "weight 1 (3): X1 X2 X3" in out
    assert "non-detectable (1): X1X2X3" in out

    code, out, _ = run_cli(capsys, "correctable", "--scheme", "dfs2")
    assert "correctable set: 2 operators" in out
    assert "detectable set: 2 operators" in out
    assert "complement of dimension 2" in out


def test_correctable_phase_flavor(capsys):
    code, out, _ = run_cli(capsys, "correctable", "--scheme", "phase3")
    assert code == 0
    assert "weight 1 (3): Z1 Z2 Z3" in out


def test_correctable_rejects_unencoded(capsys):
    code, _, err = run_cli(capsys, "correctable", "--scheme", "unencoded")
    assert code == 2 and "unencoded" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "corrqec.cli", "fidelity", "--model", "1",
         "--scheme", "bit3", "--p", "0.1", "--mu", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_rejects_grid_below_one(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "closed-form", "--grid", grid])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert f"argument --grid: must be >= 1, got {grid}" in out.err
    assert "Traceback" not in out.err


def test_closed_form_suite_refuses_an_empty_grid():
    for steps in (0, -3):
        with pytest.raises(ParameterError):
            closed_form_agreement(steps)


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3",
        "--p", "0.1", "--mu", "0", "--output", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("error", [CapacityError, DimensionError, UnsupportedPairError])
def test_library_input_errors_exit_2_with_one_line(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("input out of range")

    monkeypatch.setattr(cli, "run_sweep", fail)
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3", "--p", "0.1", "--mu", "0"
    )
    assert code == 2
    assert err == "error: input out of range\n"


def test_descending_range_is_refused(capsys):
    with pytest.raises(ParameterError):
        parse_range("0.9:0.1:3")
    assert parse_range("0.4:0.4:2") == (0.4, 0.4)
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3",
        "--p-range", "0.9:0.1:3", "--mu", "0",
    )
    assert code == 2 and out == ""
    assert "0.9:0.1:3" in err

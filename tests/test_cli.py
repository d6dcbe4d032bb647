import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corrqec import channels, checks, cli, sweep
from corrqec.channels import MODEL_II, ChannelParams, NoiseChannel, build_channel
from corrqec.checks import closed_form_agreement, flavor_symmetry
from corrqec.cli import main
from corrqec.errors import CapacityError, DimensionError, ParameterError
from corrqec.fidelity import SUITE_NAMES, evaluate, threshold_mu
from corrqec.recovery import RecoverySet, build_recovery, correctable_set
from corrqec.sweep import (
    CSV_HEADER,
    MAX_RANGE_STEPS,
    THRESHOLD_CSV_HEADER,
    ThresholdRow,
    parse_range,
    render_fidelity,
    render_threshold,
    run_sweep,
    run_threshold,
)

from _oracles import pattern_code


def child_env():
    """The environment of a child interpreter that imports this checkout's corrqec."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


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


def test_a_usage_error_leaves_the_next_request_unchanged(capsys):
    # the parser is built once per process; a refused request, whether argparse
    # or the command refuses it, must not change what the next one parses
    good = ("fidelity", "--model", "1", "--scheme", "dfs2", "--p", "0.1", "--mu-range", "0:1:3")
    code, alone, _ = run_cli(capsys, *good)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--model", "3", "--scheme", "bit3", "--format", "json", "--p", "0.1"])
    assert exc.value.code == 2
    code, _, _ = run_cli(
        capsys, "fidelity", "--model", "2", "--scheme", "bit3", "--format", "json", "--p", "2",
        "--mu", "0.5",
    )
    assert code == 2
    assert run_cli(capsys, *good) == (0, alone, "")
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_signed_zero_prints_as_zero(capsys, fmt):
    fidelity = ("fidelity", "--model", "2", "--scheme", "bit3,unencoded", "--format", fmt)
    code, signed, _ = run_cli(capsys, *fidelity, "--p", "-0", "--mu", "-0.0")
    assert code == 0 and "-0" not in signed
    assert run_cli(capsys, *fidelity, "--p", "0", "--mu", "0") == (0, signed, "")
    threshold = ("threshold", "--model", "1", "--scheme", "dfs2", "--format", fmt, "--p")
    code, _, err = run_cli(capsys, *threshold, "-0")
    assert code == 2
    assert run_cli(capsys, *threshold, "0") == (2, "", err)


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


@pytest.mark.parametrize("command", ["fidelity", "threshold"])
def test_alias_with_a_contradicting_flavor_exits_2(capsys, monkeypatch, command):
    def unreachable(*args):
        raise AssertionError("no point may be computed for a refused request")

    monkeypatch.setattr(cli, "run_sweep", unreachable)
    monkeypatch.setattr(cli, "run_threshold", unreachable)
    extra = ("--mu", "0.5") if command == "fidelity" else ()
    for scheme in ("bit3,phase3", "concat6-phase", "dfs2-phase"):
        code, out, err = run_cli(
            capsys, command, "--model", "2", "--scheme", scheme, "--flavor", "bit",
            "--p", "0.1", *extra,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "implies flavor 'phase'" in err
    code, out, err = run_cli(capsys, command, "--model", "2", "--scheme", ",", "--p", "0.1", *extra)
    assert code == 2 and out == ""
    assert err == "error: at least one scheme is required\n"


def test_renderers_refuse_an_unknown_format():
    rows = [evaluate("bit3", 1, 0.5, 0.1)]
    thresholds = [ThresholdRow(2, "dfs2", threshold_mu("dfs2", 2, 0.1))]
    for fmt in ("xml", "CSV", ""):
        with pytest.raises(ParameterError, match="csv, json"):
            render_fidelity(rows, fmt)
        with pytest.raises(ParameterError, match="csv, json"):
            render_threshold(thresholds, fmt)
    assert render_fidelity(rows, "csv").startswith(CSV_HEADER + "\n")
    assert render_threshold(thresholds, "csv").startswith(THRESHOLD_CSV_HEADER + "\n")


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
    # each suite reports under the name that --suite offers for it
    assert [line.split()[1] for line in out.splitlines()[:-1]] == list(SUITE_NAMES)


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


def test_run_suites_refuses_an_unknown_suite(monkeypatch):
    ran = []
    monkeypatch.setitem(checks.SUITES, "endpoints", lambda: ran.append("endpoints"))
    with pytest.raises(ParameterError, match="'no-such-suite'"):
        checks.run_suites(["endpoints", "no-such-suite"], grid_steps=2)
    # refused before any suite runs
    assert ran == []


def test_run_suites_refuses_an_empty_selection():
    # running no suite would report "all 0 suite(s) passed" having checked nothing
    with pytest.raises(ParameterError, match="no verification suite"):
        checks.run_suites([], grid_steps=2)


def test_sparse_dense_suite_fails_when_the_kernel_is_off(capsys, monkeypatch):
    real = checks.entanglement_fidelity_corrected
    monkeypatch.setattr(
        checks, "entanglement_fidelity_corrected", lambda ch, rs: real(ch, rs) + 1e-9
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "sparse-dense")
    assert code == 1
    assert "[FAIL] sparse-dense" in out


def test_sparse_dense_suite_fails_when_the_oracle_is_off(capsys, monkeypatch):
    # a first run fills the oracle's memo on the cached recovery sets
    code, out, _ = run_cli(capsys, "verify", "--suite", "sparse-dense")
    assert code == 0 and "[PASS] sparse-dense" in out
    real = checks.dense_oracle_fidelity
    monkeypatch.setattr(checks, "dense_oracle_fidelity", lambda ch, rs: real(ch, rs) + 1e-9)
    code, out, _ = run_cli(capsys, "verify", "--suite", "sparse-dense")
    assert code == 1
    assert "[FAIL] sparse-dense" in out


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


SCHEME_NAMES = ("bit3", "dfs2", "concat6", "unencoded", "phase3", "dfs2-phase", "concat6-phase")


def test_correctable_takes_no_model(capsys):
    # both models act through the same 2^n Paulis, the support of the recovery,
    # so a listing has no model to name
    code, out, _ = run_cli(capsys, "correctable", "--scheme", "concat6")
    assert code == 0
    assert out.splitlines()[0] == "scheme concat6 (bit flavor): 6 qubits, 64 channel operators"
    with pytest.raises(SystemExit) as exc:
        main(["correctable", "--scheme", "concat6", "--model", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --model 1" in capsys.readouterr().err


# SHA-256 of each listing's stdout: no benchmark digest covers this command
CORRECTABLE_DIGESTS = {
    ("bit3",): "51733ee313c5a565e163af99329b9680425437450dcad240552217b399ef377b",
    ("dfs2",): "3899153121ac2d006f133b7ed9e79ccdc114449fdcb1ee4e5de93304c4b18faa",
    ("concat6",): "6b0c9a5877246187dd06eadce161df9ade1cbc4101ac953dd9939826f0e20a7f",
    ("unencoded",): "1105ee222cd42d5872f6b9c947ca173b3b0cc880588947adaa69ad2d42ede998",
    ("phase3",): "a5d9efd0c7161c363605c645359b4284a8b843adc390c6229be6ccff1a486851",
    ("dfs2-phase",): "4cd6688918aac13d7b1e4f2837913872ec3f59f4c90aa269baaae8b2d21ed792",
    ("concat6-phase",): "8da848fea1ddb51f135edfe995c02993253768d0c3b95b050a2f75ec1076c132",
    ("bit3", "--flavor", "phase"):
        "602461654d43056d571352e48cf79ac4f912c021f6a0f63f4e89c4bb17f9e7bd",
    ("dfs2", "--flavor", "phase"):
        "b1ab3867f9395323640d65a8b0821029571bb5f3e81f61646d7c48df8c259dad",
    ("concat6", "--flavor", "phase"):
        "34bb4fef3bc9015c55fc87fbfdb844cb860e3fb565ced5d06f294bbbc70e73d5",
    ("unencoded", "--flavor", "phase"):
        "6b60e6f2be58eeb785d9564279a99e68745208ec7ba0a9ebcc0f304316bdc5d7",
}


@pytest.mark.parametrize("scheme", list(CORRECTABLE_DIGESTS), ids=" ".join)
def test_correctable_listing_is_pinned(capsys, scheme):
    code, out, err = run_cli(capsys, "correctable", "--scheme", *scheme)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CORRECTABLE_DIGESTS[scheme]


def test_the_listing_and_the_suite_build_no_channel(capsys, monkeypatch):
    # both read the flavor's 2^n strings, the support the recovery was derived on
    requests = [("correctable", "--scheme", scheme) for scheme in SCHEME_NAMES]
    requests.append(("verify", "--suite", "correctable"))
    today = [run_cli(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _, _ in today)

    def refuse(params):
        raise AssertionError("a channel was built")

    for module in (channels, checks, cli):
        monkeypatch.setattr(module, "build_channel", refuse, raising=False)
    assert [run_cli(capsys, *argv) for argv in requests] == today


def test_correctable_suite_fails_on_a_recovery_missing_an_operator(capsys, monkeypatch):
    # the suite checks the set the fidelity kernel uses: the recovery's members
    concat, rs = checks.scheme_recovery("concat6", "bit")
    members = [op for rop in rs.ops for op in rop.members]
    short_rs = build_recovery(concat, [op for op in members if op.x_mask != 0b111111])
    real = checks.scheme_recovery

    def patched(base, flavor):
        if (base, flavor) == ("concat6", "bit"):
            return concat, short_rs
        return real(base, flavor)

    monkeypatch.setattr(checks, "scheme_recovery", patched)
    result = checks.correctable_census()
    assert not result.passed
    assert "concat6: correctable masks differ" in result.detail
    assert "concat6: 31 correctable operators, expected 32" in result.detail
    code, out, _ = run_cli(capsys, "verify", "--suite", "correctable")
    assert code == 1
    assert out.startswith("[FAIL] correctable")
    assert out.endswith("1 suite(s) failed: correctable\n")


DERIVE_COUNT_SCRIPT = """
import contextlib, io
from corrqec import cli, schemes
calls = []
derive = schemes.correctable_set
def counting(code, paulis):
    calls.append(code)
    return derive(code, paulis)
schemes.correctable_set = counting
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["threshold", "--model", "1", "--scheme", "dfs2,bit3,concat6,unencoded",
                     "--p", "0.1"]) == 0
    assert cli.main(["verify", "--suite", "correctable"]) == 0
print(len(calls))
"""


def test_each_correctable_set_is_derived_once_per_process():
    # threshold derives the four bit-flavor sets; the correctable suite reads
    # three of them back from the cached recoveries instead of deriving them again
    proc = subprocess.run(
        [sys.executable, "-S", "-c", DERIVE_COUNT_SCRIPT],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"


def test_correctable_phase_flavor(capsys):
    code, out, _ = run_cli(capsys, "correctable", "--scheme", "phase3")
    assert code == 0
    assert "weight 1 (3): Z1 Z2 Z3" in out


def test_correctable_lists_the_trivial_set_for_unencoded(capsys):
    # the bare qubit is the trivial code: only the identity is correctable
    for flavor, flip in (("bit", "X1"), ("phase", "Z1")):
        code, out, err = run_cli(
            capsys, "correctable", "--scheme", "unencoded", "--flavor", flavor
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == (
            f"scheme unencoded ({flavor} flavor): 1 qubits, 2 channel operators"
        )
        assert lines[1:7] == [
            "correctable set: 1 operators, weight census {0: 1}",
            "  weight 0 (1): I",
            "detectable set: 1 operators",
            f"non-detectable (1): {flip}",
            "recovery operators: 1",
            "other maximum correctable sets containing the identity: 0",
        ]


CLOSED_STDOUT_REQUESTS = {
    "fidelity": ("--model", "2", "--scheme", "concat6", "--p", "0.1", "--mu-range", "0:1:101"),
    "threshold": ("--model", "1", "--scheme", "concat6", "--p", "0.1"),
    "verify": ("--suite", "endpoints"),
    "correctable": ("--scheme", "concat6"),
}


@pytest.mark.parametrize("command", CLOSED_STDOUT_REQUESTS)
def test_a_closed_stdout_exits_141_without_a_traceback(command):
    # the reader is gone before the child writes, as in `corrqec ... | head -0`
    proc = subprocess.Popen(
        [sys.executable, "-m", "corrqec.cli", command, *CLOSED_STDOUT_REQUESTS[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "corrqec.cli", "fidelity", "--model", "1",
         "--scheme", "bit3", "--p", "0.1", "--mu", "0"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER


# every request runs in one fresh interpreter; numpy must stay unloaded after each
NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from corrqec import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


def test_fidelity_threshold_and_correctable_do_not_load_numpy():
    requests = [
        ["fidelity", "--model", "2", "--scheme", "dfs2,bit3,concat6",
         "--p", "0.1", "--mu-range", "0:1:101"],
        ["threshold", "--model", "2", "--scheme", "dfs2,bit3,concat6,unencoded",
         "--p-range", "0.05:0.45:9"],
        ["correctable", "--scheme", "concat6"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(requests)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # the dense suites still import it where they need it
    proc = subprocess.run(
        [sys.executable, "-m", "corrqec.cli", "verify", "--suite", "sparse-dense"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[PASS] sparse-dense")


LAZY_IMPORT_SCRIPT = """
import contextlib, io, sys
import corrqec.cli
def loaded():
    print(sorted({"corrqec.checks", "corrqec.roots", "json"} & set(sys.modules)))
loaded()
for argv in (["fidelity", "--model", "2", "--scheme", "dfs2", "--p", "0.1", "--mu", "0.5"],
             ["threshold", "--model", "2", "--scheme", "dfs2", "--p", "0.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert corrqec.cli.main(argv) == 0, argv
    loaded()
"""


def test_importing_the_cli_loads_neither_checks_nor_json():
    # verify imports the suites, JSON output json, and threshold the root
    # solver, when they run
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_IMPORT_SCRIPT],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n['corrqec.roots']\n"


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


@pytest.mark.parametrize("grid", ["409", "100000000"])
def test_huge_verify_grid_is_refused(capsys, monkeypatch, grid):
    # 6 x grid^2 closed-form points exceed MAX_RANGE_STEPS: exit 2 before any grid
    def unreachable(*args):
        raise AssertionError("built a grid past the bound")

    monkeypatch.setattr(checks, "linspace", unreachable)
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_RANGE_STEPS) in err


def test_largest_verify_grid_is_accepted(monkeypatch):
    class Row:
        f_numeric = f_closed_form = 0.5

    monkeypatch.setattr(checks, "evaluate", lambda *args: Row)
    result = closed_form_agreement(408)
    assert 6 * 408 * 408 <= MAX_RANGE_STEPS
    assert result.passed and result.detail.startswith("grid 408x408")


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3",
        "--p", "0.1", "--mu", "0", "--output", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("error", [CapacityError, DimensionError])
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


def test_single_step_range_needs_equal_endpoints(capsys):
    assert parse_range("0.3:0.3:1") == (0.3,)
    with pytest.raises(ParameterError):
        parse_range("0.05:0.45:1")
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "dfs2",
        "--p-range", "0.05:0.45:1", "--mu", "0.5",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_huge_step_count_is_refused(capsys):
    # refused before any grid is allocated: one error line, exit 2
    with pytest.raises(ParameterError):
        parse_range(f"0:1:{MAX_RANGE_STEPS + 1}")
    code, out, err = run_cli(
        capsys, "fidelity", "--model", "1", "--scheme", "bit3", "--p", "0.1",
        "--mu-range", "0:1:99999999999",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "99999999999" in err


@pytest.mark.parametrize("argv", [
    ("fidelity", "--model", "1", "--scheme", "bit3",
     "--p-range", "0:1:1000000", "--mu-range", "0:1:1000000"),
    ("fidelity", "--model", "2", "--scheme", "bit3,dfs2",
     "--p-range", "0:1:1000", "--mu-range", "0:1:501"),
    ("threshold", "--model", "1", "--scheme", "bit3,dfs2",
     "--p-range", "0.01:0.49:500001"),
], ids=["fidelity-1e12", "fidelity-schemes", "threshold"])
def test_huge_table_is_refused(capsys, monkeypatch, argv):
    # each axis is within MAX_RANGE_STEPS, the table is not: exit 2 before any point
    def unreachable(*args):
        raise AssertionError("ran past the row bound")

    monkeypatch.setattr(sweep, "evaluate", unreachable)
    monkeypatch.setattr(sweep, "threshold_mu", unreachable)
    # refused from the step counts alone: no axis grid is built either
    monkeypatch.setattr(cli, "parse_range", unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_RANGE_STEPS) in err


def test_table_bound_counts_rows_exactly(monkeypatch):
    monkeypatch.setattr(sweep, "evaluate", lambda *args: None)
    monkeypatch.setattr(sweep, "threshold_mu", lambda *args: None)
    axis = parse_range("0:1:1000")
    assert len(run_sweep(1, ("bit3",), axis, axis)) == MAX_RANGE_STEPS
    with pytest.raises(ParameterError):
        run_sweep(1, ("bit3",), axis, axis + (1.0,))
    p_values = parse_range(f"0:1:{MAX_RANGE_STEPS // 2}")
    assert len(run_threshold(1, ("bit3", "dfs2"), p_values)) == MAX_RANGE_STEPS
    with pytest.raises(ParameterError):
        run_threshold(1, ("bit3", "dfs2", "dfs2"), p_values)


def test_flavor_symmetry_suite_fails_on_a_wrong_phase_code(capsys, monkeypatch):
    # |+++--->/|---+++> is not the Hadamard mirror of the bit-flavor concat6
    # code: at p=0.2, mu=0.4 (model 1) its fidelity is 0.882 against 0.758
    wrong = pattern_code("+++---", "---+++")
    support = build_channel(ChannelParams(p=0.5, mu=0.5, n=6, flavor="phase")).paulis
    wrong_rs = build_recovery(wrong, correctable_set(wrong, support))
    real = checks.scheme_recovery

    def patched(base, flavor):
        if (base, flavor) == ("concat6", "phase"):
            return wrong, wrong_rs
        return real(base, flavor)

    monkeypatch.setattr(checks, "scheme_recovery", patched)
    result = flavor_symmetry()
    assert not result.passed and result.max_deviation > 0.1
    code, out, _ = run_cli(capsys, "verify", "--suite", "flavor-symmetry")
    assert code == 1
    assert "[FAIL] flavor-symmetry" in out


def assert_verify_fails(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    assert out.startswith(f"[FAIL] {suite}")


def test_trace_preservation_suite_fails_on_a_recovery_missing_an_operator(
    capsys, monkeypatch
):
    real = checks.scheme_recovery

    def patched(base, flavor):
        code, rs = real(base, flavor)
        if (base, flavor) == ("bit3", "bit"):
            return code, RecoverySet(rs.code, rs.ops[:-1], rs.complement)
        return code, rs

    monkeypatch.setattr(checks, "scheme_recovery", patched)
    result = checks.recovery_trace_preservation()
    assert not result.passed and result.max_deviation == pytest.approx(1.0)
    assert_verify_fails(capsys, "trace-preservation")


def test_model_mu0_suite_fails_on_a_raised_model2_weight(capsys, monkeypatch):
    real = checks.build_channel

    def raised(params):
        channel = real(params)
        if params.model != MODEL_II:
            return channel
        weights = list(channel.weights)
        weights[0] += 1e-9
        return NoiseChannel(channel.n, channel.paulis, weights)

    monkeypatch.setattr(checks, "build_channel", raised)
    result = checks.model_mu0_agreement()
    assert not result.passed and result.max_deviation == pytest.approx(1e-9)
    assert_verify_fails(capsys, "model-mu0")


def test_endpoints_suite_fails_on_a_scaled_fidelity(capsys, monkeypatch):
    real = checks.evaluate

    def scaled(*args):
        result = real(*args)
        return result._replace(f_numeric=result.f_numeric * (1 - 1e-9))

    monkeypatch.setattr(checks, "evaluate", scaled)
    result = checks.endpoint_identities()
    assert not result.passed and result.max_deviation == pytest.approx(1e-9)
    assert_verify_fails(capsys, "endpoints")


def test_thresholds_suite_fails_on_a_shifted_p(capsys, monkeypatch):
    real = checks.threshold_mu

    def shifted(scheme, model, p):
        return real(scheme, model, 1.01 * p)

    monkeypatch.setattr(checks, "threshold_mu", shifted)
    result = checks.threshold_reproduction()
    assert not result.passed and "dfs2 mu* =" in result.detail
    assert_verify_fails(capsys, "thresholds")

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; ``corrqec verify`` exercises the same suites from the CLI.
"""

import re
import time
from pathlib import Path

import numpy as np

from corrqec.channels import MODEL_I, MODEL_II, ChannelParams, build_channel
from corrqec.checks import (
    CONCAT6_NON_DETECTABLE_MASKS,
    CONCAT6_WEIGHT_CENSUS,
    closed_form_agreement,
    correctable_census,
    endpoint_identities,
    flavor_symmetry,
    kraus_normalization,
    recovery_trace_preservation,
    sparse_dense_agreement,
    threshold_reproduction,
)
from corrqec.cli import main
from corrqec.fidelity import evaluate, threshold_mu
from corrqec.recovery import correctable_set, non_detectable_set
from corrqec.schemes import scheme_recovery
from corrqec.sweep import CSV_HEADER, parse_range, render_fidelity_csv, run_sweep


def report(num, name, detail):
    print(f"criterion {num} ({name}): PASS  [{detail}]")


def test_criterion_1_closed_form_agreement():
    # six published polynomials vs the channel->recovery->trace pipeline,
    # 21x21 grid over [0,1]^2, max |delta| < 1e-10
    result = closed_form_agreement(grid_steps=21)
    assert result.passed, result.detail
    assert result.max_deviation < 1e-10
    report(1, "closed-form agreement", f"max |dev| = {result.max_deviation:.3e}")


def test_criterion_2_correctable_set_reproduction():
    result = correctable_census()
    assert result.passed, result.detail

    code, _ = scheme_recovery("concat6", "bit")
    support = build_channel(ChannelParams(p=0.5, mu=0.5, n=6, model=MODEL_I)).paulis
    corr = correctable_set(code, support)
    assert len(corr) == 32
    census = {}
    for op in corr:
        census[op.weight] = census.get(op.weight, 0) + 1
    assert census == CONCAT6_WEIGHT_CENSUS
    labels = {op.label() for op in corr}
    expected = (
        {"I", "X1", "X2", "X3", "X4", "X5", "X6"}
        | {f"X{i}X{j}" for i in (1, 2, 3) for j in (4, 5, 6)}
        | {
            "X1X2X4X5", "X1X2X4X6", "X1X2X5X6",
            "X1X3X4X5", "X1X3X4X6", "X1X3X5X6",
            "X2X3X4X5", "X2X3X4X6", "X2X3X5X6",
        }
        | {
            "X1X2X3X4X5", "X1X2X3X4X6", "X1X2X4X5X6",
            "X1X3X4X5X6", "X1X2X3X5X6", "X2X3X4X5X6",
        }
        | {"X1X2X3X4X5X6"}
    )
    assert labels == expected
    nondet = non_detectable_set(code, support)
    assert {op.x_mask for op in nondet} == set(CONCAT6_NON_DETECTABLE_MASKS)
    assert [op.label() for op in nondet] == ["X1X2X3", "X4X5X6"]
    report(2, "correctable-set reproduction", f"32 operators, census {census}")


def test_criterion_3_thresholds_at_p_01():
    result = threshold_reproduction()
    assert result.passed, result.detail

    dfs = threshold_mu("dfs2", MODEL_II, 0.1)
    assert abs(dfs.mu_star - 4.0 / 9.0) < 1e-6
    assert dfs.branch == "above"

    bit = threshold_mu("bit3", MODEL_II, 0.1)
    assert abs(bit.mu_star - 0.2963) < 1e-4
    assert bit.branch == "below"

    conc = threshold_mu("concat6", MODEL_II, 0.1)
    assert conc.branch == "all" and conc.regions == ((0.0, 1.0),)
    worst = 0.0
    for mu in np.linspace(0.0, 1.0, 21):
        p_fail = evaluate("concat6", MODEL_II, float(mu), 0.1).failure_prob
        worst = max(worst, abs(p_fail - 0.054432 * (1.0 - mu)))
    assert worst < 1e-10
    report(
        3,
        "threshold reproduction",
        f"dfs2 mu*={dfs.mu_star:.10f}, bit3 mu*={bit.mu_star:.10f}, "
        f"concat6 all-mu dev={worst:.2e}",
    )


def test_criterion_4_model1_endpoint_identities():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        worst = max(
            worst, abs(evaluate("bit3", MODEL_I, 1.0, float(p)).f_numeric - (1.0 - p))
        )
        worst = max(worst, abs(evaluate("dfs2", MODEL_I, 1.0, float(p)).f_numeric - 1.0))
    for scheme in ("bit3", "dfs2", "concat6", "unencoded"):
        for mu in np.linspace(0.0, 1.0, 11):
            worst = max(worst, abs(evaluate(scheme, MODEL_I, float(mu), 0.0).f_numeric - 1.0))
    assert worst < 1e-12
    result = endpoint_identities()
    assert result.passed, result.detail
    report(4, "endpoint identities", f"max |dev| = {worst:.3e}")


def test_criterion_5_structural_suites():
    norm = kraus_normalization()
    assert norm.passed and norm.max_deviation < 1e-12, norm.detail
    trace = recovery_trace_preservation()
    assert trace.passed and trace.max_deviation < 1e-10, trace.detail
    oracle = sparse_dense_agreement()
    assert oracle.passed and oracle.max_deviation < 1e-10, oracle.detail
    report(
        5,
        "structural suites",
        f"normalization {norm.max_deviation:.2e}, trace {trace.max_deviation:.2e}, "
        f"sparse-vs-dense {oracle.max_deviation:.2e}",
    )


def test_criterion_6_flavor_symmetry(capsys):
    result = flavor_symmetry()
    assert result.passed, result.detail
    # the documented CLI contract: a fidelity table does not depend on the
    # flavor, and an alias gives its base scheme's rows under its own name
    aliases = {"phase3": "bit3", "dfs2-phase": "dfs2", "concat6-phase": "concat6"}

    def table(schemes, *flavor):
        code = main(["fidelity", "--model", "2", "--scheme", schemes, *flavor,
                     "--p-range", "0:1:5", "--mu-range", "0:1:5"])
        assert code == 0
        return capsys.readouterr().out

    bit = table("bit3,dfs2,concat6,unencoded", "--flavor", "bit")
    assert len(bit.splitlines()) == 1 + 4 * 25
    assert table("bit3,dfs2,concat6,unencoded", "--flavor", "phase") == bit
    assert table("bit3,dfs2,concat6,unencoded") == bit
    for flavor in ((), ("--flavor", "phase")):
        renamed = [
            ",".join(aliases.get(field, field) for field in line.split(","))
            for line in table("phase3,dfs2-phase,concat6-phase", *flavor).splitlines()
        ]
        assert renamed == bit.splitlines()[: 1 + 3 * 25]
    report(6, "flavor symmetry", "CLI tables byte-identical across flavors and aliases, 5x5 grid")


def test_criterion_7_figure_data_emission():
    start = time.perf_counter()
    rows = run_sweep(MODEL_II, ("dfs2", "bit3", "concat6"), (0.1,), parse_range("0:1:101"))
    text = render_fidelity_csv(rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 303
    by_scheme = {}
    for r in rows:
        by_scheme.setdefault(r.scheme, []).append(r)
    # crossings implied by criterion 3 on the 0.01-spaced grid
    dfs = {round(r.mu, 2): r.failure_prob for r in by_scheme["dfs2"]}
    assert dfs[0.44] > 0.1 and dfs[0.45] < 0.1
    bit = {round(r.mu, 2): r.failure_prob for r in by_scheme["bit3"]}
    assert bit[0.29] < 0.1 and bit[0.30] > 0.1
    assert all(r.failure_prob < 0.1 for r in by_scheme["concat6"])
    report(7, "figure-data emission", f"303 rows in {elapsed:.2f}s, crossings verified")


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["r"].f_numeric - 0.972784) < 1e-12
    assert namespace["f"] == namespace["r"].f_numeric
    assert abs(namespace["tp"].mu_star - 4.0 / 9.0) < 1e-6

"""The names and counts the benchmark in ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps corrqec functions by module and attribute
name, ``perfbench/run.py`` checks the call counts a request implies, and
``perfbench/probe.py`` reads recovery sets in a fresh interpreter.  A change
that breaks one of these fails here rather than in a benchmark run.  The
tests only read ``perfbench/``.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrqec
from corrqec import checks, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # run.py pins the BLAS thread variables when imported; keep them out of
    # the environment of the other tests
    saved = dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import tracer
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run, tracer


def test_every_traced_name_resolves_to_a_callable(bench):
    _, tracer = bench
    table = tracer.span_table()
    assert table
    for name, module, attr, _ in table:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def _names_used_outside_their_definition(path):
    """Names a module loads, or reads as attributes, outside the def or class of that name."""
    used = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.enclosing = []

        def visit_definition(self, node):
            self.enclosing.append(node.name)
            self.generic_visit(node)
            self.enclosing.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_definition

        def use(self, name):
            if name not in self.enclosing:
                used.add(name)

        def visit_Name(self, node):
            if isinstance(node.ctx, ast.Load):
                self.use(node.id)

        def visit_Attribute(self, node):
            self.use(node.attr)
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_export_has_a_caller_in_the_package(bench):
    # a public function only tests call is API to keep for nobody; tests keep
    # their references in tests/_oracles.py instead
    _, tracer = bench
    package = Path(corrqec.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "build_channel" in exported and "scheme_recovery" in exported
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used_outside_their_definition(path)
    traced = {attr for _, _, attr, _ in tracer.span_table()}
    assert [name for name in exported if name not in used | traced] == []


def test_traced_request_gives_the_expected_calls(bench):
    run, tracer = bench
    argv = (
        "fidelity", "--model", "1", "--scheme", "bit3,unencoded",
        "--p-range", "0.1:0.2:2", "--mu-range", "0:1:2",
    )
    expected = run.expected_calls(argv)
    assert expected == {
        "fidelity.evaluate": 8,
        "channels.build_channel": 8,
        "fidelity.kernel": 4,
        "fidelity.unencoded": 4,
    }
    spans = tracer.Tracer()
    out = io.StringIO()
    with tracer.traced(spans), contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert {name: spans.calls[name] for name in expected} == expected
    assert len(out.getvalue().splitlines()) == 1 + 8


def test_traced_json_request_counts_its_rendered_rows(bench):
    run, tracer = bench
    argv = (
        "fidelity", "--model", "2", "--scheme", "dfs2,unencoded,phase3",
        "--p-range", "0:1:3", "--mu-range", "0:1:2", "--format", "json",
    )
    expected = run.expected_calls(argv)
    assert expected == {
        "fidelity.evaluate": 18,
        "channels.build_channel": 18,
        "fidelity.kernel": 12,
        "fidelity.unencoded": 6,
    }
    spans = tracer.Tracer()
    out = io.StringIO()
    with tracer.traced(spans), contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert {name: spans.calls[name] for name in expected} == expected
    assert spans.calls["sweep.render.json"] == 1
    assert spans.counts["sweep.render.json.rows"] == 18
    assert len(json.loads(out.getvalue())) == 18


def test_traced_verify_request_gives_the_expected_calls(bench):
    # the dense oracle keeps its rows on the recovery set, but still runs at
    # every sparse-dense point
    run, tracer = bench
    argv = ("verify",)
    expected = run.expected_calls(argv)
    assert expected == {
        **{f"checks.{suite}": 1 for suite in checks.SUITES},
        "checks.closed-form.inner": 2646,
        "fidelity.dense_oracle": 90,
    }
    spans = tracer.Tracer()
    out = io.StringIO()
    with tracer.traced(spans), contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    # the closed-form suite's inner evaluations are a count, not a call
    done = spans.calls + spans.counts
    assert {name: done[name] for name in expected} == expected
    assert out.getvalue().endswith("all 9 suite(s) passed\n")


def test_probe_reads_the_recovery_set():
    src = Path(corrqec.__file__).resolve().parents[1]
    # dfs2: one isometry plus a two-dimensional complement; concat6: 16
    # isometries plus 32 complement vectors, which stay built eagerly
    for pair, ops in (("dfs2:bit", 3), ("concat6:bit", 48)):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "probe.py"), pair],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["recovery_ops"] == ops, pair
        # the probe times the two layers through the schemes module's bindings;
        # a cold derivation that bypassed them would read 0 s
        assert probe["correctable_set_s"] > 0 and probe["build_recovery_s"] > 0, pair


def test_benchmark_selftest_passes():
    # a moved canonical digest or a broken traced count fails here, not in a run
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

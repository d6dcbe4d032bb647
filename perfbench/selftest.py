"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

Checks that the harness can fail: a run with no completed request fails,
a request with a wrong exit code or perturbed output counts as failed, and
the traced run's count checks hold.  Also checks that seeds change the
generated requests but not the canonical ones, whose outputs must still
match the pinned digests (this runs every canonical request once,
``verify`` included, so it takes about half a minute).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

CLI = run.import_corrqec()


def first_requests(name: str, seed: int, count: int = 6) -> list[tuple[str, ...]]:
    generator = requests(WORKLOADS[name], seed)
    return [next(generator) for _ in range(count)]


def output(argv: tuple[str, ...]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert CLI.main(list(argv)) == 0
    return buffer.getvalue()


def perturb(argv: tuple[str, ...], text: str) -> str:
    """Move one fidelity by 1e-9, or one threshold mu* by 1e-6."""
    if "--format" in argv:
        rows = json.loads(text)
        rows[len(rows) // 2]["fidelity_numeric"] -= 1e-9
        return json.dumps(rows, indent=2) + "\n"
    lines = text.splitlines()
    if argv[0] == "fidelity":
        index, column, delta = len(lines) // 2, 4, -1e-9
    else:
        index = next(i for i, ln in enumerate(lines) if i and ln.split(",")[3])
        column, delta = 3, 1e-6
    fields = lines[index].split(",")
    fields[column] = format(float(fields[column]) + delta, ".12g")
    lines[index] = ",".join(fields)
    return "\n".join(lines) + "\n"


class HarnessFails(unittest.TestCase):
    def test_zero_requests_fail_the_run(self):
        workload = WORKLOADS["threshold"]
        with self.assertRaises(run.BenchmarkError):
            run.measure(requests(workload, 1), 0.0, lambda argv: [], run.Prober(workload))
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "threshold", "--seed", "1", "--seconds", "0"])
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")

    def test_failing_verify_counts_as_failed(self):
        argv = ("verify", "--suite", "closed-form", "--grid", "3",
                "--inject-error", "concat6-model1")
        with contextlib.redirect_stdout(io.StringIO()):
            outcome = run.execute(CLI, WORKLOADS["verify"], argv)
        self.assertEqual(outcome.problems, ["exit code 1"])

    def test_usage_error_counts_as_failed(self):
        argv = ("fidelity", "--model", "3", "--scheme", "bit3", "--p", "0.1", "--mu", "0.5")
        with contextlib.redirect_stderr(io.StringIO()):
            outcome = run.execute(CLI, WORKLOADS["sweep-small"], argv)
        self.assertEqual(outcome.problems, ["exit code 2"])

    def test_perturbed_outputs_fail_the_checks(self):
        for name in ("sweep-concat6", "sweep-small", "threshold"):
            argv = WORKLOADS[name].canonical
            text = output(argv)
            self.assertEqual(oracle.check(argv, 0, text), [], name)
            self.assertNotEqual(oracle.check(argv, 0, perturb(argv, text)), [], name)


class Seeds(unittest.TestCase):
    def test_seeds_change_generated_requests_only(self):
        for name, workload in WORKLOADS.items():
            one, two = first_requests(name, 1), first_requests(name, 2)
            self.assertEqual(one[0], workload.canonical)
            self.assertEqual(two[0], workload.canonical)
            self.assertEqual(one, first_requests(name, 1))
            if name != "verify":
                self.assertNotEqual(one[1:], two[1:], name)

    def test_canonical_outputs_match_pinned_digests(self):
        for name, workload in WORKLOADS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = run.execute(CLI, workload, workload.canonical)
            self.assertEqual(outcome.problems, [], name)

    def test_threshold_requests_put_p_01_on_the_grid(self):
        argvs = first_requests("threshold", 3, 40)[1:]
        hits = [a for a in argvs if any(format(p, ".12g") == "0.1" for p in oracle.grid(a, "p"))]
        self.assertGreater(len(hits), 5)


class Oracles(unittest.TestCase):
    def test_published_polynomials_match_program_closed_forms(self):
        from corrqec.fidelity import closed_form

        rng = random.Random(0)
        for scheme, model in oracle.PUBLISHED:
            for _ in range(50):
                mu, p = rng.random(), rng.random()
                self.assertAlmostEqual(
                    oracle.published_fidelity(scheme, model, mu, p),
                    closed_form(scheme, model, mu, p), delta=1e-12,
                )

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail(samples), (90.0, 90.0))


class Traced(unittest.TestCase):
    def test_traced_counts_and_outputs(self):
        readme = WORKLOADS["sweep-concat6"].canonical
        threshold = first_requests("threshold", 4)[1]
        plain = {argv: output(argv) for argv in (readme, threshold)}
        spans = tracer.Tracer()
        with tracer.traced(spans):
            traced_readme = output(readme)
            self.assertEqual(spans.calls["fidelity.evaluate"], 303)
            self.assertEqual(spans.calls["channels.build_channel"], 303)
            self.assertEqual(spans.calls["fidelity.kernel"], 303)
            self.assertEqual(spans.counts["fidelity.kernel.concat6"], 101)
            traced_threshold = output(threshold)
            self.assertEqual(spans.calls["fidelity.threshold_mu"], 36)
            self.assertEqual(spans.calls["cli.main"], 2)
        self.assertEqual(traced_readme, plain[readme])
        self.assertEqual(traced_threshold, plain[threshold])
        from corrqec import checks, fidelity, sweep

        restored = [CLI.main, sweep.evaluate, fidelity.evaluate, *checks.SUITES.values()]
        self.assertFalse(any(hasattr(fn, "__wrapped__") for fn in restored))

    def test_expected_calls_of_requests(self):
        readme = WORKLOADS["sweep-concat6"].canonical
        self.assertEqual(run.expected_calls(readme)["fidelity.kernel"], 303)
        small = WORKLOADS["sweep-small"].canonical
        self.assertEqual(run.expected_calls(small)["fidelity.unencoded"], 2121)
        threshold = WORKLOADS["threshold"].canonical
        self.assertEqual(run.expected_calls(threshold), {"fidelity.threshold_mu": 36})


if __name__ == "__main__":
    unittest.main()

"""corrqec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``corrqec`` is imported from
``src/`` next to this directory, never from an installed copy.  One closed-loop
client (one process, one thread) sends CLI-equivalent requests to
``corrqec.cli.main(argv)`` with stdout captured, the next only after the
previous one returned.  The first request of a run is the workload's
canonical request, whose output must match the SHA-256 digest pinned in
``digests.json``; the rest are generated from the seed (``workloads.py``).
Every request's output is checked against independent oracles
(``oracle.py``); a request fails when it raises, exits nonzero or fails a
check.  A request starts only while it is expected to finish within
``--seconds``, and at least one must complete.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends every
request twice in a row, untraced and then with every public corrqec
function wrapped (``tracer.py``), and prints the per-layer metrics, per
traced request, with the tracing overhead.  Both also run the cold set-up
probe (``probe.py``) in fresh interpreters, spread over the run.  The
last stdout line is the JSON result; the lines before it are a readable
report with the environment.  The exit code is 0 when every request
passed, and 1 when a request failed, none completed or no corrqec source
tree was found.

Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# The dense oracle multiplies matrices through BLAS; pin every thread pool to
# one thread before numpy is first imported, so the client stays one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Argv, Workload, requests  # noqa: E402

DIGESTS = json.loads((HERE / "digests.json").read_text())
PROBES = 9
TAIL_BEYOND = 10
# defaults of `corrqec verify`: closed-form grid steps, sparse-dense points
CLOSED_FORM_GRID = 21
SPARSE_DENSE_POINTS = 3 * 30


class BenchmarkError(Exception):
    """The run cannot produce a result."""


@dataclass
class Outcome:
    argv: Argv
    seconds: float
    rows: int
    digest: str
    problems: list[str] = field(default_factory=list)


def import_corrqec():
    """Import corrqec from the checkout's src/ tree, or raise BenchmarkError."""
    if not (SRC / "corrqec" / "__init__.py").is_file():
        raise BenchmarkError(f"no corrqec source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import corrqec
    from corrqec import cli

    if Path(corrqec.__file__).resolve().parent != (SRC / "corrqec").resolve():
        raise BenchmarkError(f"imported corrqec from {corrqec.__file__}, not {SRC}")
    return cli


def execute(cli, workload: Workload, argv: Argv) -> Outcome:
    """Send one request and check its output."""
    buffer = io.StringIO()
    gc.collect()  # start every request from the same heap state, as a fresh process does
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising request is a failed request
        code = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    text = buffer.getvalue()
    outcome = Outcome(argv, seconds, oracle.rows_in(argv), oracle.digest(text))
    if isinstance(code, str):
        outcome.problems.append(f"raised {code}")
    else:
        outcome.problems += oracle.check(argv, code, text)
    if argv == workload.canonical:
        pinned = DIGESTS[workload.name]
        if oracle.digest(oracle.canonical_text(argv, text)) != pinned:
            outcome.problems.append(f"canonical output differs from digest {pinned[:12]}")
    return outcome


def measure(argvs, seconds: float, send, prober: Prober) -> list[Outcome]:
    """Closed loop: ``send`` each request while it is expected to end in time.

    ``send(argv)`` returns the outcomes of one step.  The set-up probes are
    spread over the run, so that their median covers the same stretch of
    machine time as the requests.
    """
    outcomes: list[Outcome] = []
    step_s = 0.0
    start = perf_counter()
    for argv in argvs:
        elapsed = perf_counter() - start
        if len(prober.results) * seconds < PROBES * elapsed:
            prober.run()
            elapsed = perf_counter() - start
        if elapsed >= seconds or (outcomes and elapsed + step_s > seconds):
            break
        step = send(argv)
        step_s = sum(o.seconds for o in step)
        outcomes += step
    if not outcomes:
        raise BenchmarkError(f"no request completed within {seconds} s")
    while len(prober.results) < PROBES:
        prober.run()
    return outcomes


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With too few samples for any such
    percentile, the maximum is reported as the 100th percentile.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Prober:
    """Cold set-ups (``probe.py``), each in a fresh interpreter."""

    def __init__(self, workload: Workload) -> None:
        self.argv = [sys.executable, str(HERE / "probe.py")]
        self.argv += [f"{base}:{flavor}" for base, flavor in workload.recoveries]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.results: list[dict] = []

    def run(self) -> None:
        done = subprocess.run(self.argv, env=self.env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
        result = json.loads(done.stdout)
        if Path(result["module"]).resolve().parent != (SRC / "corrqec").resolve():
            raise BenchmarkError(f"probe imported corrqec from {result['module']}")
        self.results.append(result)

    def medians(self) -> dict:
        keys = ("import_s", "scheme_recovery_s", "correctable_set_s", "build_recovery_s")
        median = {key: statistics.median(r[key] for r in self.results) for key in keys}
        median["setup_s"] = statistics.median(
            r["import_s"] + r["scheme_recovery_s"] for r in self.results)
        median["recovery_ops"] = self.results[0]["recovery_ops"]
        return median


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


Result = tuple[list[Outcome], dict, list[str]]


def end_to_end(cli, workload: Workload, seed: int, seconds: float) -> Result:
    prober = Prober(workload)
    outcomes = measure(
        requests(workload, seed), seconds, lambda argv: [execute(cli, workload, argv)], prober)
    probe = prober.medians()
    latencies = [o.seconds for o in outcomes]
    tail_value, tail_pct = tail(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The median is printed but not part of the result: where the machine
    # switches between CPU speed states that outlast a run, a run's median
    # snaps to whichever state held most of its requests, and over ten seeds
    # it spread up to 0.37 (IQR/median) while the tail and the throughput
    # below stayed within 0.23.
    metrics = {
        "request_s.tail": metric(tail_value, "s"),
        "rows_per_s": metric(sum(o.rows for o in outcomes) / sum(latencies), "1/s"),
        "setup_s": metric(probe["setup_s"], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    notes = [
        f"request_s.p50 {statistics.median(latencies):.6g} s; "
        f"request_s.tail is p{tail_pct:.0f} of {len(latencies)} requests",
        f"setup_s = import {probe['import_s']:.4f} s + cold scheme_recovery "
        f"{probe['scheme_recovery_s']:.4f} s (median of {PROBES} fresh processes)",
    ]
    return outcomes, metrics, notes


def expected_calls(argv: Argv) -> dict[str, int]:
    """Span counts one request implies, independent of how it is computed."""
    if argv[0] == "verify":
        counts = {f"checks.{suite}": 1 for suite in oracle.SUITE_NAMES}
        counts["checks.closed-form.inner"] = 6 * CLOSED_FORM_GRID**2
        counts["fidelity.dense_oracle"] = SPARSE_DENSE_POINTS
        return counts
    rows = oracle.rows_in(argv)
    if argv[0] == "threshold":
        return {"fidelity.threshold_mu": rows}
    schemes = argv[argv.index("--scheme") + 1].split(",")
    unencoded = rows // len(schemes) * schemes.count("unencoded")
    return {
        "fidelity.evaluate": rows,
        "channels.build_channel": rows,
        "fidelity.kernel": rows - unencoded,
        "fidelity.unencoded": unencoded,
    }


def per_layer(cli, workload: Workload, seed: int, seconds: float) -> Result:
    """Send each request untraced, then traced, so that both see the same machine."""
    from corrqec import schemes

    spans = tracer.Tracer()
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    cache = Counter()

    def pair(argv: Argv) -> list[Outcome]:
        plain = execute(cli, workload, argv)
        before = spans.calls + spans.counts
        cache_before = schemes.scheme_recovery.cache_info()
        with tracer.traced(spans):
            outcome = execute(cli, workload, argv)
        cache_after = schemes.scheme_recovery.cache_info()
        cache["hits"] += cache_after.hits - cache_before.hits
        cache["misses"] += cache_after.misses - cache_before.misses
        done = spans.calls + spans.counts
        for name, count in expected_calls(argv).items():
            if done[name] - before[name] != count:
                outcome.problems.append(
                    f"traced {name}: {done[name] - before[name]} calls, expected {count}")
        if outcome.digest != plain.digest:
            outcome.problems.append("traced output differs from untraced output")
        untraced.append(plain)
        traced.append(outcome)
        return [plain, outcome]

    prober = Prober(workload)
    outcomes = measure(requests(workload, seed), seconds, pair, prober)
    probe = prober.medians()
    n = len(traced)

    def calls(name: str) -> float:
        return spans.calls[name] / n

    def self_s(name: str) -> float:
        return spans.self_s[name] / n

    def ratio(total: float, count: float) -> float:
        return total / count if count else 0.0

    layer = {
        "channels.build_channel.calls": metric(calls("channels.build_channel"), "count"),
        "channels.build_channel.self_s": metric(self_s("channels.build_channel"), "s"),
        "channels.kraus_terms": metric(spans.counts["channels.kraus_terms"] / n, "count"),
        "schemes.scheme_recovery.hits": metric(cache["hits"] / n, "count"),
        "schemes.scheme_recovery.misses": metric(cache["misses"] / n, "count"),
        "schemes.scheme_recovery.cold_s": metric(probe["scheme_recovery_s"], "s"),
        "recovery.correctable_set.cold_s": metric(probe["correctable_set_s"], "s"),
        "recovery.build_recovery.cold_s": metric(probe["build_recovery_s"], "s"),
        "recovery.recovery_ops": metric(probe["recovery_ops"], "count"),
    }
    for name in ("kernel", "unencoded", "evaluate", "closed_form", "threshold_mu", "dense_oracle"):
        layer[f"fidelity.{name}.calls"] = metric(calls(f"fidelity.{name}"), "count")
        layer[f"fidelity.{name}.self_s"] = metric(self_s(f"fidelity.{name}"), "s")
    for scheme in ("concat6", "bit3", "dfs2"):
        bucket = f"fidelity.kernel.{scheme}"
        layer[f"fidelity.kernel.us_per_point.{scheme}"] = metric(
            1e6 * ratio(spans.counts[f"{bucket}.self_s"], spans.counts[bucket]), "us")
    layer["fidelity.threshold_mu.evals_per_call"] = metric(ratio(
        spans.counts["fidelity.threshold_mu.inner"], spans.calls["fidelity.threshold_mu"]), "count")
    layer["sweep.run_sweep.self_s"] = metric(self_s("sweep.run_sweep"), "s")
    layer["sweep.run_threshold.self_s"] = metric(self_s("sweep.run_threshold"), "s")
    for fmt in ("csv", "json"):
        name = f"sweep.render.{fmt}"
        layer[f"sweep.render.us_per_row.{fmt}"] = metric(
            1e6 * ratio(spans.self_s[name], spans.counts[f"{name}.rows"]), "us")
    for suite in oracle.SUITE_NAMES:
        name = f"checks.{suite}"
        layer[f"{name}.s"] = metric(spans.total_s[name] / n, "s")
        layer[f"{name}.evaluate_calls"] = metric(spans.counts[f"{name}.inner"] / n, "count")
    layer["cli.main.self_s"] = metric(self_s("cli.main"), "s")
    plain_p50 = statistics.median(o.seconds for o in untraced)
    traced_p50 = statistics.median(o.seconds for o in traced)
    layer["tracing_overhead"] = metric(traced_p50 - plain_p50, "s")

    traced_s = sum(spans.self_s.values())
    shares = sorted(((t, name) for name, t in spans.self_s.items()), reverse=True)
    notes = [
        f"{n} traced requests; untraced p50 {plain_p50:.4f} s, traced p50 {traced_p50:.4f} s",
        "self time share: " + ", ".join(
            f"{name} {100 * t / traced_s:.1f}%" for t, name in shares[:6]),
    ]
    return outcomes, layer, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_corrqec()
        run = per_layer if args.trace else end_to_end
        outcomes, metrics, notes = run(cli, workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    failed = [o for o in outcomes if o.problems]
    print("env " + json.dumps(environment()))
    print(f"workload {workload.name} seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ratio {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4f}")
    for o in failed[:5]:
        print(f"  FAILED {' '.join(o.argv)}: {'; '.join(o.problems[:3])}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded request generation and canonical requests.

Why each workload exists is recorded in BENCHMARK.json at the repo root.

A request is one CLI command, given as the argv list that
``corrqec.cli.main`` receives.  Each workload has one canonical request,
fixed and independent of the seed, whose output bytes are pinned by a
SHA-256 digest in ``digests.json``; every other request is generated from
the seed, so the program sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    canonical: Argv
    # (scheme, flavor) pairs whose recovery a fresh process synthesizes
    recoveries: tuple[tuple[str, str], ...]
    # rng, request index (1, 2, ...) -> argv
    generate: Callable[[random.Random, int], Argv]


# Each sweep workload keeps one model: a model-2 point costs ~25% more than a
# model-1 point, so alternating them makes request times bimodal and their
# median swing between the two modes from run to run.
def _sweep_concat6(rng: random.Random, index: int) -> Argv:
    p = rng.uniform(0.01, 0.49)
    return (
        "fidelity", "--model", "2", "--scheme", "concat6,bit3,dfs2",
        "--p", f"{p:.4f}", "--mu-range", "0:1:101",
    )


def _sweep_small(rng: random.Random, index: int) -> Argv:
    lo = rng.uniform(0.0, 0.5)
    hi = min(1.0, lo + rng.uniform(0.1, 0.5))
    return (
        "fidelity", "--model", "1", "--scheme", "bit3,dfs2,unencoded",
        "--p-range", f"{lo:.4f}:{hi:.4f}:21", "--mu-range", "0:1:101", "--format", "json",
    )


def _threshold(rng: random.Random, index: int) -> Argv:
    step = rng.choice((0.01, 0.02, 0.025, 0.05))
    if rng.random() < 0.5:
        # put p = 0.1 on the grid, so the published thresholds are checked
        k = rng.randrange(0, min(9, round(0.1 / step)))
        lo = 0.1 - k * step
    else:
        lo = rng.uniform(0.005, 0.5)
    return (
        "threshold", "--model", str(1 + index % 2), "--scheme", "dfs2,bit3,concat6,unencoded",
        "--p-range", f"{lo:.6f}:{lo + 8 * step:.6f}:9",
    )


def _verify(rng: random.Random, index: int) -> Argv:
    return ("verify",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-concat6",
            ("fidelity", "--model", "2", "--scheme", "dfs2,bit3,concat6",
             "--p", "0.1", "--mu-range", "0:1:101"),
            tuple((s, "bit") for s in ("concat6", "bit3", "dfs2")),
            _sweep_concat6,
        ),
        Workload(
            "sweep-small",
            ("fidelity", "--model", "1", "--scheme", "bit3,dfs2,unencoded",
             "--p-range", "0:0.5:21", "--mu-range", "0:1:101", "--format", "json"),
            tuple((s, "bit") for s in ("bit3", "dfs2")),
            _sweep_small,
        ),
        Workload(
            "threshold",
            ("threshold", "--model", "2", "--scheme", "dfs2,bit3,concat6,unencoded",
             "--p-range", "0.05:0.45:9"),
            tuple((s, "bit") for s in ("dfs2", "bit3", "concat6")),
            _threshold,
        ),
        Workload(
            "verify",
            ("verify",),
            tuple((s, f) for s in ("bit3", "dfs2", "concat6") for f in ("bit", "phase")),
            _verify,
        ),
    )
}


def requests(workload: Workload, seed: int):
    """Yield the canonical request, then seeded requests without end."""
    yield workload.canonical
    rng = random.Random(seed)
    index = 1
    while True:
        yield workload.generate(rng, index)
        index += 1

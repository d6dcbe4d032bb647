"""Output checks, written independently of the code under test.

The fidelity polynomials below are the published closed forms of Cafaro &
Mancini (arXiv:1006.2051), transcribed as integer coefficients.  Every
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

FIDELITY_TOL = 1e-10
THRESHOLD_BOUNDARY_TOL = 1e-8
THRESHOLD_SIDE_TOL = 1e-12
EDGE = 1e-9

FIDELITY_COLUMNS = (
    "model", "scheme", "mu", "p", "fidelity_numeric",
    "fidelity_closed_form", "abs_diff", "failure_prob",
)
THRESHOLD_COLUMNS = ("model", "scheme", "p", "mu_star", "branch", "regions")
SUITE_NAMES = (
    "closed-form", "kraus-normalization", "trace-preservation", "sparse-dense",
    "correctable", "flavor-symmetry", "model-mu0", "endpoints", "thresholds",
)

# (scheme, model) -> coefficient of mu^k, itself a list of coefficients of p^j
PUBLISHED = {
    ("bit3", 1): ([1, 0, -3, 2], [0, -2, 6, -4], [0, 1, -3, 2]),
    ("bit3", 2): ([1, 0, -3, 2], [0, -3, 6, -3]),
    ("dfs2", 1): ([1, -2, 2], [0, 2, -2]),
    ("dfs2", 2): ([1, -2, 2], [0, 2, -2]),
    ("concat6", 1): (
        [1, 0, -6, 4, 18, -24, 8],
        [0, -4, 12, 24, -112, 120, -40],
        [0, 2, 10, -104, 252, -240, 80],
        [0, 2, -26, 128, -264, 240, -80],
        [0, 0, 10, -60, 130, -120, 40],
        [0, 0, 0, 8, -24, 24, -8],
    ),
    ("concat6", 2): ([1, 0, -6, 4, 18, -24, 8], [0, 0, 6, -4, -18, 24, -8]),
}


def published_fidelity(scheme: str, model: int, mu: float, p: float) -> float:
    if scheme == "unencoded":
        return 1.0 - p
    return sum(
        mu**k * sum(c * p**j for j, c in enumerate(coeffs))
        for k, coeffs in enumerate(PUBLISHED[(scheme, model)])
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_DEVIATION = re.compile(r"max \|dev\| = \S+")


def canonical_text(argv: tuple[str, ...], text: str) -> str:
    """The bytes a canonical digest covers.

    The deviations ``verify`` prints are rounding noise of order 1e-15, and
    those computed through dense matrix products depend on the machine's
    BLAS kernels, so they are masked; the verdicts and details are kept.
    """
    if argv[0] == "verify":
        return _DEVIATION.sub("max |dev| = *", text)
    return text


def _option(argv: tuple[str, ...], name: str) -> str | None:
    flag = f"--{name}"
    return argv[argv.index(flag) + 1] if flag in argv else None


def grid(argv: tuple[str, ...], name: str) -> list[float]:
    """Inclusive grid a request asks for, from --name or --name-range."""
    single = _option(argv, name)
    if single is not None:
        return [float(single)]
    lo, hi, steps = _option(argv, f"{name}-range").split(":")
    lo, hi, n = float(lo), float(hi), int(steps)
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _optional(value: str | float | None) -> float | None:
    return None if value in (None, "") else float(value)


def check_fidelity(argv: tuple[str, ...], text: str) -> list[str]:
    model = int(_option(argv, "model"))
    schemes = _option(argv, "scheme").split(",")
    p_values, mu_values = grid(argv, "p"), grid(argv, "mu")
    if _option(argv, "format") == "json":
        rows = json.loads(text)
        if rows and tuple(rows[0]) != FIDELITY_COLUMNS:
            return [f"json keys {tuple(rows[0])}"]
    else:
        reader = csv.reader(io.StringIO(text))
        header = tuple(next(reader))
        if header != FIDELITY_COLUMNS:
            return [f"csv header {header}"]
        rows = [dict(zip(FIDELITY_COLUMNS, r)) for r in reader]
    expected = [(s, p, mu) for s in schemes for p in p_values for mu in mu_values]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (scheme, p, mu) in zip(rows, expected):
        where = f"{scheme} mu={mu:.6g} p={p:.6g}"
        if int(row["model"]) != model or row["scheme"] != scheme:
            problems.append(f"row order: got {row['model']},{row['scheme']} at {where}")
        elif not (_close(float(row["mu"]), mu, 1e-9) and _close(float(row["p"]), p, 1e-9)):
            problems.append(f"grid: got mu={row['mu']} p={row['p']} at {where}")
        else:
            numeric = float(row["fidelity_numeric"])
            truth = published_fidelity(scheme, model, mu, p)
            closed = _optional(row["fidelity_closed_form"])
            diff = _optional(row["abs_diff"])
            if not _close(numeric, truth, FIDELITY_TOL):
                problems.append(f"fidelity {numeric} vs published {truth} at {where}")
            if not _close(float(row["failure_prob"]), 1.0 - numeric, FIDELITY_TOL):
                problems.append(f"failure_prob {row['failure_prob']} at {where}")
            if scheme == "unencoded":
                if closed is not None or diff is not None:
                    problems.append(f"unencoded closed-form fields filled at {where}")
            elif closed is None or not _close(closed, truth, FIDELITY_TOL):
                problems.append(f"closed form {closed} vs published {truth} at {where}")
            elif diff is None or not _close(diff, abs(numeric - closed), FIDELITY_TOL):
                problems.append(f"abs_diff {diff} at {where}")
        if len(problems) >= 5:
            break
    return problems


def _branch(regions: list[tuple[float, float]]) -> str:
    if not regions:
        return "none"
    if len(regions) == 1:
        lo, hi = regions[0]
        return {
            (True, True): "all", (True, False): "below",
            (False, True): "above", (False, False): "inside",
        }[(lo <= EDGE, hi >= 1.0 - EDGE)]
    if len(regions) == 2 and regions[0][0] <= EDGE and regions[1][1] >= 1.0 - EDGE:
        return "outside"
    return "mixed"


def _check_threshold_row(model: int, scheme: str, p: float, row: dict) -> list[str]:
    where = f"{scheme} model {model} p={p:.6g}"
    regions = [
        tuple(float(x) for x in part.split(":"))
        for part in row["regions"].split(";") if part
    ]
    mu_star = _optional(row["mu_star"])
    if row["branch"] != _branch(regions):
        return [f"branch {row['branch']} does not match regions {regions} at {where}"]
    if scheme == "unencoded":
        # failure probability equals p for every mu: never strictly better
        return [] if not regions and mu_star is None else [f"unencoded effective at {where}"]

    def excess(mu: float) -> float:
        return 1.0 - published_fidelity(scheme, model, mu, p) - p

    problems = []
    bounds = [b for region in regions for b in region]
    if bounds != sorted(bounds) or any(not 0.0 <= b <= 1.0 for b in bounds):
        return [f"regions {regions} not ordered inside [0, 1] at {where}"]
    interior = [b for b in bounds if EDGE < b < 1.0 - EDGE]
    for b in interior:
        if abs(excess(b)) > THRESHOLD_BOUNDARY_TOL:
            problems.append(f"boundary {b} has failure - p = {excess(b):.3g} at {where}")
    expected_star = interior[0] if interior else None
    if (mu_star is None) != (expected_star is None) or (
        mu_star is not None and not _close(mu_star, expected_star, 1e-12)
    ):
        problems.append(f"mu_star {mu_star}, first interior boundary {expected_star} at {where}")
    for lo, hi in regions:
        if excess(0.5 * (lo + hi)) > THRESHOLD_SIDE_TOL:
            problems.append(f"region {lo}:{hi} not effective at {where}")
    edges = [0.0] + bounds + [1.0]
    for lo, hi in zip(edges[::2], edges[1::2]):
        if hi - lo > EDGE and excess(0.5 * (lo + hi)) < -THRESHOLD_SIDE_TOL:
            problems.append(f"gap {lo}:{hi} is effective at {where}")
    if model == 2 and format(p, ".12g") == "0.1":
        if scheme == "dfs2" and (mu_star is None or abs(mu_star - 4 / 9) > 1e-6):
            problems.append(f"dfs2 mu* {mu_star}, published 4/9")
        if scheme == "bit3" and (mu_star is None or abs(mu_star - 0.2963) > 1e-4):
            problems.append(f"bit3 mu* {mu_star}, published 0.2963")
    return problems


def check_threshold(argv: tuple[str, ...], text: str) -> list[str]:
    model = int(_option(argv, "model"))
    schemes = _option(argv, "scheme").split(",")
    p_values = grid(argv, "p")
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != THRESHOLD_COLUMNS:
        return [f"csv header {header}"]
    rows = [dict(zip(THRESHOLD_COLUMNS, r)) for r in reader]
    expected = [(s, p) for s in schemes for p in p_values]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (scheme, p) in zip(rows, expected):
        if int(row["model"]) != model or row["scheme"] != scheme:
            problems.append(f"row order: got {row['model']},{row['scheme']} for {scheme}")
        elif not _close(float(row["p"]), p, 1e-9):
            problems.append(f"grid: got p={row['p']} for {p}")
        else:
            problems += _check_threshold_row(model, scheme, p, row)
    return problems


def check_verify(argv: tuple[str, ...], text: str) -> list[str]:
    lines = text.splitlines()
    names = [m.group(1) for m in (re.match(r"\[PASS\] (\S+)", ln) for ln in lines) if m]
    if names != list(SUITE_NAMES):
        return [f"passing suites {names}"]
    if lines[-1:] != [f"all {len(SUITE_NAMES)} suite(s) passed"]:
        return [f"last line {lines[-1:]}"]
    return []


CHECKS = {"fidelity": check_fidelity, "threshold": check_threshold, "verify": check_verify}


def check(argv: tuple[str, ...], exit_code: int, text: str) -> list[str]:
    """Problems with one request's exit code and stdout."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKS[argv[0]](argv, text)
    except (ValueError, KeyError, TypeError, StopIteration, IndexError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]


def rows_in(argv: tuple[str, ...]) -> int:
    """Output table rows a request produces: grid points, thresholds or suites."""
    if argv[0] == "verify":
        return len(SUITE_NAMES)
    schemes = len(_option(argv, "scheme").split(","))
    rows = schemes * len(grid(argv, "p"))
    return rows * len(grid(argv, "mu")) if argv[0] == "fidelity" else rows


"""Parameter sweeps and deterministic table rendering.

Row order is fixed: schemes in the order requested, then p ascending, then
mu ascending.  Floats are rendered with 12 significant digits, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ParameterError
from .fidelity import FidelityResult, evaluate, threshold_mu

CSV_HEADER = "model,scheme,mu,p,fidelity_numeric,fidelity_closed_form,abs_diff,failure_prob"
THRESHOLD_CSV_HEADER = "model,scheme,p,mu_star,branch,regions"
OUTPUT_FORMATS = ("csv", "json")
# grids and tables are built in memory; a range with more points, or a table
# with more rows, than this is refused before it is built
MAX_RANGE_STEPS = 1_000_000


def fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_optional(x: float | None) -> str:
    return "" if x is None else fmt_float(x)


def _json_float(x: float | None) -> float | None:
    return None if x is None else float(fmt_float(x))


def range_spec(text: str) -> tuple[float, float, int]:
    """Parse and check 'min:max:steps'; builds no grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"range must look like min:max:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"could not parse range {text!r}: {exc}") from None
    if not 1 <= steps <= MAX_RANGE_STEPS:
        raise ParameterError(f"steps must lie in [1, {MAX_RANGE_STEPS}], got {steps}")
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
        raise ParameterError(f"range endpoints must lie in [0, 1], got {text!r}")
    if lo > hi:
        # rows are emitted in ascending order of each swept parameter
        raise ParameterError(f"range min must not exceed max, got {text!r}")
    if steps == 1 and lo < hi:
        # one point cannot include both endpoints
        raise ParameterError(f"a single step needs min == max, got {text!r}")
    return lo, hi, steps


def parse_range(text: str) -> tuple[float, ...]:
    """Parse 'min:max:steps' into an inclusive uniform grid."""
    return linspace(*range_spec(text))


def linspace(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """numpy.linspace(lo, hi, steps) in plain floats, equal to it bit for bit."""
    div = steps - 1
    delta = hi - lo
    step = delta / div if div else delta
    if div and step == 0.0:
        # delta / div underflowed to zero: scale before multiplying
        grid = [i / div * delta + lo for i in range(steps)]
    else:
        grid = [i * step + lo for i in range(steps)]
    if div:
        grid[-1] = hi
    return tuple(grid)


def check_rows(rows: int) -> None:
    """Refuse a table of more than MAX_RANGE_STEPS rows."""
    if rows > MAX_RANGE_STEPS:
        raise ParameterError(f"the table would have {rows} rows; at most {MAX_RANGE_STEPS}")


def run_sweep(
    model: int,
    schemes: tuple[str, ...],
    p_values: tuple[float, ...],
    mu_values: tuple[float, ...],
) -> list[FidelityResult]:
    check_rows(len(schemes) * len(p_values) * len(mu_values))
    return [
        evaluate(scheme, model, mu, p)
        for scheme in schemes
        for p in p_values
        for mu in mu_values
    ]


def render_fidelity_csv(results: list[FidelityResult]) -> str:
    lines = [CSV_HEADER]
    # rows are unpacked: a namedtuple field read costs more than a local
    for mu, p, scheme, model, f, f_closed, failure in results:
        diff = None if f_closed is None else abs(f - f_closed)
        lines.append(
            ",".join(
                (
                    str(model),
                    scheme,
                    fmt_float(mu),
                    fmt_float(p),
                    fmt_float(f),
                    _fmt_optional(f_closed),
                    _fmt_optional(diff),
                    fmt_float(failure),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _json_number(x: float | None) -> str:
    return "null" if x is None else repr(float(fmt_float(x)))


def render_fidelity_json(results: list[FidelityResult]) -> str:
    """``json.dumps(rows, indent=2)`` of one dict per row, byte for byte, from a
    fixed template: a float is the repr of its 12-digit value, None is null."""
    import json
    rows = []
    for mu, p, scheme, model, f, f_closed, failure in results:
        diff = None if f_closed is None else abs(f - f_closed)
        rows.append(
            "\n  {\n"
            f'    "model": {model},\n'
            f'    "scheme": {json.dumps(scheme)},\n'
            f'    "mu": {_json_number(mu)},\n'
            f'    "p": {_json_number(p)},\n'
            f'    "fidelity_numeric": {_json_number(f)},\n'
            f'    "fidelity_closed_form": {_json_number(f_closed)},\n'
            f'    "abs_diff": {_json_number(diff)},\n'
            f'    "failure_prob": {_json_number(failure)}\n'
            "  }"
        )
    return "[" + ",".join(rows) + ("\n]\n" if rows else "]\n")


def _check_format(output_format: str) -> None:
    if output_format not in OUTPUT_FORMATS:
        raise ParameterError(
            f"output format must be one of {', '.join(OUTPUT_FORMATS)}, got {output_format!r}"
        )


def render_fidelity(results: list[FidelityResult], output_format: str) -> str:
    _check_format(output_format)
    if output_format == "json":
        return render_fidelity_json(results)
    return render_fidelity_csv(results)


# one threshold table row: a ThresholdPoint of a scheme under a model
ThresholdRow = namedtuple("ThresholdRow", "model scheme point")


def run_threshold(
    model: int, schemes: tuple[str, ...], p_values: tuple[float, ...]
) -> list[ThresholdRow]:
    check_rows(len(schemes) * len(p_values))
    return [
        ThresholdRow(model, scheme, threshold_mu(scheme, model, p))
        for scheme in schemes
        for p in p_values
    ]


def render_threshold_csv(rows: list[ThresholdRow]) -> str:
    lines = [THRESHOLD_CSV_HEADER]
    for model, scheme, (p, mu_star, branch, regions) in rows:
        lines.append(
            ",".join(
                (
                    str(model),
                    scheme,
                    fmt_float(p),
                    _fmt_optional(mu_star),
                    branch,
                    ";".join(f"{fmt_float(lo)}:{fmt_float(hi)}" for lo, hi in regions),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_threshold_json(rows: list[ThresholdRow]) -> str:
    import json
    payload = []
    for model, scheme, (p, mu_star, branch, regions) in rows:
        payload.append(
            {
                "model": model,
                "scheme": scheme,
                "p": _json_float(p),
                "mu_star": _json_float(mu_star),
                "branch": branch,
                "regions": [[_json_float(lo), _json_float(hi)] for lo, hi in regions],
            }
        )
    return json.dumps(payload, indent=2) + "\n"


def render_threshold(rows: list[ThresholdRow], output_format: str) -> str:
    _check_format(output_format)
    if output_format == "json":
        return render_threshold_json(rows)
    return render_threshold_csv(rows)

"""Command-line front end: fidelity sweeps, thresholds, verification, listings.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .channels import ChannelParams, build_channel
from .checks import SUITES, run_suites
from .errors import CapacityError, DimensionError, ParameterError, UnsupportedPairError
from .fidelity import CLOSED_FORM_KEYS
from .recovery import (
    alternative_maximal_sets,
    correctable_set,
    detectable_set,
    non_detectable_set,
)
from .schemes import resolve_scheme, scheme_recovery
from .sweep import (
    SweepSpec,
    parse_range,
    render_fidelity,
    render_threshold,
    run_sweep,
    run_threshold,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1

# bad input, reported as one line and exit code USAGE_ERROR
INPUT_ERRORS = (ParameterError, CapacityError, DimensionError, UnsupportedPairError)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrqec",
        description=(
            "Correlated bit-flip/phase-flip noise channels, error-correcting and "
            "error-avoiding codes, and entanglement-fidelity analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, schemes: bool = True) -> None:
        p.add_argument("--model", type=int, choices=(1, 2), required=True,
                       help="noise model: 1 (Markov chain) or 2 (convex combination)")
        if schemes:
            p.add_argument("--scheme", required=True,
                           help="comma-separated scheme list (bit3, dfs2, concat6, unencoded; "
                                "aliases phase3, dfs2-phase, concat6-phase)")
        p.add_argument("--flavor", choices=("bit", "phase"), default=None,
                       help="error flavor (default bit)")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    fid = sub.add_parser("fidelity", help="fidelity table over a (mu, p) grid")
    add_common(fid)
    fid.add_argument("--p", type=float, default=None, help="single error probability")
    fid.add_argument("--p-range", default=None, help="min:max:steps, inclusive")
    fid.add_argument("--mu", type=float, default=None, help="single memory degree")
    fid.add_argument("--mu-range", default=None, help="min:max:steps, inclusive")
    add_output(fid)

    thr = sub.add_parser("threshold", help="effective mu-regions per error probability")
    add_common(thr)
    thr.add_argument("--p", type=float, default=None)
    thr.add_argument("--p-range", default=None)
    add_output(thr)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--suite", choices=tuple(SUITES), default=None,
                     help="run a single suite (default: all)")
    ver.add_argument("--grid", type=positive_int, default=21,
                     help="closed-form agreement grid steps per axis")
    ver.add_argument("--inject-error", choices=CLOSED_FORM_KEYS, default=None,
                     metavar="SCHEME-MODELN",
                     help="test hook for the closed-form suite: perturb one closed form, "
                          "e.g. concat6-model1")

    cor = sub.add_parser("correctable", help="list correctable/detectable operators")
    cor.add_argument("--scheme", required=True,
                     help="one scheme name (bit3, dfs2, concat6, or a phase alias)")
    cor.add_argument("--model", type=int, choices=(1, 2), default=1)
    cor.add_argument("--flavor", choices=("bit", "phase"), default=None)

    return parser


def _values(single: float | None, range_text: str | None, name: str) -> tuple[float, ...]:
    if single is None and range_text is None:
        raise ParameterError(f"either --{name} or --{name}-range is required")
    if single is not None and range_text is not None:
        raise ParameterError(f"--{name} and --{name}-range are mutually exclusive")
    if single is not None:
        if not 0.0 <= single <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {single}")
        return (single,)
    return parse_range(range_text)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _cmd_fidelity(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        model=args.model,
        schemes=tuple(s.strip() for s in args.scheme.split(",") if s.strip()),
        p_values=_values(args.p, args.p_range, "p"),
        mu_values=_values(args.mu, args.mu_range, "mu"),
        flavor=args.flavor,
        output_format=args.format,
        output_path=args.output,
    )
    _emit(render_fidelity(run_sweep(spec), spec.output_format), spec.output_path)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
    if not schemes:
        raise ParameterError("at least one scheme is required")
    rows = run_threshold(args.model, schemes, _values(args.p, args.p_range, "p"), args.flavor)
    _emit(render_threshold(rows, args.format), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else None
    results = run_suites(names, grid_steps=args.grid, inject=args.inject_error)
    failed = [r for r in results if not r.passed]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name:<20} max |dev| = {r.max_deviation:.3e}  ({r.detail})")
    if failed:
        print(f"{len(failed)} suite(s) failed: " + ", ".join(r.name for r in failed))
        return VERIFY_ERROR
    print(f"all {len(results)} suite(s) passed")
    return 0


def _cmd_correctable(args: argparse.Namespace) -> int:
    base, flavor = resolve_scheme(args.scheme, args.flavor)
    if base == "unencoded":
        raise ParameterError("the unencoded scheme has no correctable set")
    code, rs = scheme_recovery(base, flavor)
    channel = build_channel(
        ChannelParams(p=0.5, mu=0.5, n=code.n, flavor=flavor, model=args.model)
    )
    corr = correctable_set(code, channel)
    det = detectable_set(code, channel)
    nondet = non_detectable_set(code, channel)
    alternatives = alternative_maximal_sets(code, channel)

    by_weight: dict[int, list[str]] = {}
    for op in corr:
        by_weight.setdefault(op.weight, []).append(op.label())
    print(f"scheme {args.scheme} ({flavor} flavor, model {args.model}): "
          f"{code.n} qubits, {len(channel.operators())} channel operators")
    print(f"correctable set: {len(corr)} operators, weight census "
          f"{{{', '.join(f'{w}: {len(ops)}' for w, ops in sorted(by_weight.items()))}}}")
    for w, labels in sorted(by_weight.items()):
        print(f"  weight {w} ({len(labels)}): {' '.join(sorted(labels))}")
    print(f"detectable set: {len(det)} operators")
    print(f"non-detectable ({len(nondet)}): {' '.join(op.label() for op in nondet)}")
    print(f"recovery operators: {len(rs.ops)}"
          + (f" + complement of dimension {len(rs.complement)}" if rs.complement else ""))
    print(f"alternative equal-size correctable sets under reordering: {len(alternatives)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fidelity": _cmd_fidelity,
        "threshold": _cmd_threshold,
        "verify": _cmd_verify,
        "correctable": _cmd_correctable,
    }
    try:
        return handlers[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

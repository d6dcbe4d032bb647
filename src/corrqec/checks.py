"""Verification suites: closed-form agreement, structure, and reproduction checks.

Each suite returns a :class:`SuiteResult`; the CLI ``verify`` command and the
acceptance tests both run these.  ``inject`` perturbs one closed form by 1e-6
(keyed 'scheme-modelN', one of ``CLOSED_FORM_KEYS``) so the failure path
itself is testable; it is refused when no selected suite would read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    build_channel,
    model1_channel,
    model2_channel,
)
from .errors import ParameterError
from .fidelity import (
    CLOSED_FORM_KEYS,
    closed_form,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    evaluate,
    threshold_mu,
)
from .recovery import (
    correctable_set,
    non_detectable_set,
    trace_preservation_deviation,
)
from .schemes import scheme_recovery
from .sweep import SweepSpec, render_fidelity_csv, run_sweep

CLOSED_FORM_TOL = 1e-10
NORMALIZATION_TOL = 1e-12
TRACE_TOL = 1e-10
ORACLE_TOL = 1e-10
ENDPOINT_TOL = 1e-12

_ENCODED = ("bit3", "dfs2", "concat6")
_MODELS = (MODEL_I, MODEL_II)

# expected correctable x-masks, qubit 1 = least significant bit
BIT3_CORRECTABLE_MASKS = frozenset({0b000, 0b001, 0b010, 0b100})
DFS2_CORRECTABLE_MASKS = frozenset({0b00, 0b11})
CONCAT6_CORRECTABLE_MASKS = frozenset(
    {0}
    | {1 << i for i in range(6)}
    | {(1 << i) | (1 << j) for i in range(3) for j in range(3, 6)}
    | {a | b for a in (0b011, 0b101, 0b110) for b in (0b011000, 0b101000, 0b110000)}
    | {0b111111 ^ (1 << i) for i in range(6)}
    | {0b111111}
)
CONCAT6_WEIGHT_CENSUS = {0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}
CONCAT6_NON_DETECTABLE_MASKS = frozenset({0b000111, 0b111000})


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str


def closed_form_agreement(grid_steps: int = 21, inject: str | None = None) -> SuiteResult:
    """Numeric pipeline vs published polynomial on a (mu, p) grid."""
    if grid_steps < 1:
        # an empty grid would check nothing and pass
        raise ParameterError(f"closed-form grid needs >= 1 step per axis, got {grid_steps}")
    if inject is not None and inject not in CLOSED_FORM_KEYS:
        # an unknown key would perturb nothing and pass
        raise ParameterError(
            f"cannot inject an error into {inject!r}; known: {', '.join(CLOSED_FORM_KEYS)}"
        )
    grid = np.linspace(0.0, 1.0, grid_steps)
    worst = 0.0
    worst_case = ""
    for base in _ENCODED:
        for model in _MODELS:
            key = f"{base}-model{model}"
            for p in grid:
                for mu in grid:
                    f = evaluate(base, model, float(mu), float(p)).f_numeric
                    cf = closed_form(base, model, float(mu), float(p))
                    if inject == key:
                        cf += 1e-6
                    dev = abs(f - cf)
                    if dev > worst:
                        worst, worst_case = dev, f"{key} at mu={mu:g}, p={p:g}"
    detail = f"grid {grid_steps}x{grid_steps}, 6 scheme/model pairs; worst: {worst_case}"
    return SuiteResult("closed-form", worst <= CLOSED_FORM_TOL, worst, detail)


def kraus_normalization() -> SuiteResult:
    """Sum of channel weights equals 1 for both models, n = 1..8."""
    worst = 0.0
    points = [(p, mu) for p in (0.0, 0.1, 0.3, 0.5, 1.0) for mu in (0.0, 0.3, 0.7, 1.0)]
    for n in range(1, 9):
        for p, mu in points:
            for model in _MODELS:
                channel = build_channel(ChannelParams(p=p, mu=mu, n=n, model=model))
                worst = max(worst, abs(channel.total_weight() - 1.0))
    detail = f"n=1..8, both models, {len(points)} parameter points"
    return SuiteResult("kraus-normalization", worst <= NORMALIZATION_TOL, worst, detail)


def recovery_trace_preservation() -> SuiteResult:
    """Dense sum R^dag R (+ complement) equals the identity for every scheme."""
    worst = 0.0
    for base in _ENCODED:
        for flavor in ("bit", "phase"):
            _, rs = scheme_recovery(base, flavor)
            worst = max(worst, trace_preservation_deviation(rs))
    return SuiteResult(
        "trace-preservation", worst <= TRACE_TOL, worst, "3 schemes, both flavors, dense"
    )


def sparse_dense_agreement(points_per_scheme: int = 30, seed: int = 7) -> SuiteResult:
    """Sparse fidelity path vs dense-matrix oracle at random parameter points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for base in _ENCODED:
        code, rs = scheme_recovery(base, "bit")
        for _ in range(points_per_scheme):
            model = int(rng.integers(1, 3))
            p = float(rng.uniform())
            mu = float(rng.uniform())
            channel = build_channel(ChannelParams(p=p, mu=mu, n=code.n, model=model))
            sparse = entanglement_fidelity_corrected(code, channel, rs)
            dense = dense_oracle_fidelity(code, channel, rs)
            worst = max(worst, abs(sparse - dense))
    detail = f"{points_per_scheme} random points per scheme, seed {seed}"
    return SuiteResult("sparse-dense", worst <= ORACLE_TOL, worst, detail)


def correctable_census() -> SuiteResult:
    """Correctable/detectable structure for all three schemes, exact masks."""
    problems = []

    def masks(ops) -> frozenset[int]:
        return frozenset(op.x_mask for op in ops)

    def census(ops) -> dict[int, int]:
        out: dict[int, int] = {}
        for op in ops:
            out[op.weight] = out.get(op.weight, 0) + 1
        return dict(sorted(out.items()))

    cases = (
        ("bit3", BIT3_CORRECTABLE_MASKS, frozenset({0b111})),
        ("dfs2", DFS2_CORRECTABLE_MASKS, frozenset({0b01, 0b10})),
        ("concat6", CONCAT6_CORRECTABLE_MASKS, CONCAT6_NON_DETECTABLE_MASKS),
    )
    concat_census: dict[int, int] = {}
    for base, expected, expected_nondet in cases:
        code, rs = scheme_recovery(base, "bit")
        channel = model1_channel(ChannelParams(p=0.5, mu=0.5, n=code.n, model=MODEL_I))
        corr = correctable_set(code, channel)
        nondet = non_detectable_set(code, channel)
        if masks(corr) != expected:
            problems.append(f"{base}: correctable masks differ")
        if masks(nondet) != expected_nondet:
            problems.append(f"{base}: non-detectable masks differ")
        if base == "concat6":
            concat_census = census(corr)
            if len(corr) != 32:
                problems.append(f"concat6: {len(corr)} correctable operators, expected 32")
            if concat_census != CONCAT6_WEIGHT_CENSUS:
                problems.append(f"concat6: weight census {concat_census}")
            # complementary masks share a syndrome subspace (the full flip acts
            # as -1 on the code space), so 32 operators give 16 isometries
            if len(rs.ops) != 16 or len(rs.complement) != 32:
                problems.append("concat6: recovery structure unexpected")
            if any(
                len(op.members) != 2
                or op.members[0].x_mask ^ op.members[1].x_mask != 0b111111
                for op in rs.ops
            ):
                problems.append("concat6: syndrome groups are not complement pairs")
    detail = f"concat6 census {concat_census}" + (
        "" if not problems else "; " + "; ".join(problems)
    )
    return SuiteResult("correctable", not problems, float(len(problems)), detail)


def flavor_symmetry(grid_steps: int = 5) -> SuiteResult:
    """Bit- and phase-flavor sweeps render byte-identical fidelity tables."""
    grid = tuple(float(v) for v in np.linspace(0.0, 1.0, grid_steps))
    mismatches = 0
    for model in _MODELS:
        for scheme in _ENCODED + ("unencoded",):
            tables = []
            for flavor in ("bit", "phase"):
                spec = SweepSpec(
                    model=model,
                    schemes=(scheme,),
                    p_values=grid,
                    mu_values=grid,
                    flavor=flavor,
                )
                tables.append(render_fidelity_csv(run_sweep(spec)))
            if tables[0] != tables[1]:
                mismatches += 1
    detail = f"grid {grid_steps}x{grid_steps}, 4 schemes, both models"
    return SuiteResult("flavor-symmetry", mismatches == 0, float(mismatches), detail)


def model_mu0_agreement() -> SuiteResult:
    """Merged Kraus sets of the two models coincide at mu = 0."""
    worst = 0.0
    identical = True
    for n in range(1, 7):
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            m1 = model1_channel(ChannelParams(p=p, mu=0.0, n=n, model=MODEL_I)).merged()
            m2 = model2_channel(ChannelParams(p=p, mu=0.0, n=n, model=MODEL_II)).merged()
            if [op.x_mask for _, op in m1.terms] != [op.x_mask for _, op in m2.terms]:
                identical = False
                continue
            for (w1, _), (w2, _) in zip(m1.terms, m2.terms):
                worst = max(worst, abs(w1 - w2))
    passed = identical and worst <= NORMALIZATION_TOL
    return SuiteResult("model-mu0", passed, worst, "n=1..6, merged Kraus sets at mu=0")


def endpoint_identities() -> SuiteResult:
    """Fidelity limits forced by the polynomials' structure."""
    worst = 0.0
    ps = np.linspace(0.0, 1.0, 11)
    for p in ps:
        worst = max(
            worst, abs(evaluate("bit3", MODEL_I, 1.0, float(p)).f_numeric - (1.0 - p))
        )
        for model in _MODELS:
            worst = max(worst, abs(evaluate("dfs2", model, 1.0, float(p)).f_numeric - 1.0))
        worst = max(worst, abs(evaluate("concat6", MODEL_II, 1.0, float(p)).f_numeric - 1.0))
    for mu in ps:
        for model in _MODELS:
            for scheme in _ENCODED + ("unencoded",):
                worst = max(
                    worst, abs(evaluate(scheme, model, float(mu), 0.0).f_numeric - 1.0)
                )
    detail = "mu=1 identities on 11 p-values; p=0 identity on 11 mu-values"
    return SuiteResult("endpoints", worst <= ENDPOINT_TOL, worst, detail)


def threshold_reproduction() -> SuiteResult:
    """Model II effectiveness boundaries at p = 0.1."""
    problems = []
    worst = 0.0

    dfs = threshold_mu("dfs2", MODEL_II, 0.1)
    if dfs.branch != "above" or dfs.mu_star is None:
        problems.append(f"dfs2 branch {dfs.branch}")
    else:
        dev = abs(dfs.mu_star - 4.0 / 9.0)
        worst = max(worst, dev)
        if dev > 1e-6:
            problems.append(f"dfs2 mu* = {dfs.mu_star}")

    bit = threshold_mu("bit3", MODEL_II, 0.1)
    if bit.branch != "below" or bit.mu_star is None:
        problems.append(f"bit3 branch {bit.branch}")
    elif abs(bit.mu_star - 0.2963) > 1e-4:
        problems.append(f"bit3 mu* = {bit.mu_star}")

    conc = threshold_mu("concat6", MODEL_II, 0.1)
    if conc.branch != "all" or conc.regions != ((0.0, 1.0),):
        problems.append(f"concat6 branch {conc.branch}, regions {conc.regions}")
    for mu in np.linspace(0.0, 1.0, 11):
        got = evaluate("concat6", MODEL_II, float(mu), 0.1).failure_prob
        dev = abs(got - 0.054432 * (1.0 - mu))
        worst = max(worst, dev)
        if dev > 1e-10:
            problems.append(f"concat6 failure prob at mu={mu:g}")
            break

    detail = "model II, p=0.1: dfs2 above 4/9, bit3 below 0.2963, concat6 everywhere"
    if problems:
        detail += "; " + "; ".join(problems)
    return SuiteResult("thresholds", not problems, worst, detail)


SUITES = {
    "closed-form": closed_form_agreement,
    "kraus-normalization": kraus_normalization,
    "trace-preservation": recovery_trace_preservation,
    "sparse-dense": sparse_dense_agreement,
    "correctable": correctable_census,
    "flavor-symmetry": flavor_symmetry,
    "model-mu0": model_mu0_agreement,
    "endpoints": endpoint_identities,
    "thresholds": threshold_reproduction,
}


def run_suites(
    names: list[str] | None = None,
    grid_steps: int = 21,
    inject: str | None = None,
) -> list[SuiteResult]:
    selected = names if names is not None else list(SUITES)
    if inject is not None and "closed-form" not in selected:
        # no other suite reads the injected error, so the run would pass
        raise ParameterError("an injected error needs the closed-form suite")
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        if name == "closed-form":
            results.append(closed_form_agreement(grid_steps, inject))
        else:
            results.append(SUITES[name]())
    return results

"""Verification suites: closed-form agreement, structure, and reproduction checks.

Each suite returns a :class:`SuiteResult`; the CLI ``verify`` command and the
acceptance tests both run these.  ``inject`` perturbs one closed form by 1e-6
(keyed 'scheme-modelN', one of ``CLOSED_FORM_KEYS``) so the failure path
itself is testable; it is refused when no selected suite would read it.
"""

from __future__ import annotations

from collections import namedtuple

from .channels import MODEL_I, MODEL_II, ChannelParams, _flavored_strings, build_channel
from .errors import ParameterError
from .fidelity import (
    CLOSED_FORM_KEYS,
    SUITE_NAMES,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    evaluate,
    threshold_mu,
)
from .recovery import non_detectable_set, trace_preservation_deviation
from .schemes import BASE_SCHEMES, scheme_recovery
from .sweep import MAX_RANGE_STEPS, linspace

CLOSED_FORM_TOL = 1e-10
NORMALIZATION_TOL = 1e-12
TRACE_TOL = 1e-10
ORACLE_TOL = 1e-10
ENDPOINT_TOL = 1e-12
FLAVOR_TOL = 1e-12

CLOSED_FORM_GRID_STEPS = 21
SPARSE_DENSE_POINTS = 30
SPARSE_DENSE_SEED = 7
FLAVOR_GRID_STEPS = 5

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


SuiteResult = namedtuple("SuiteResult", "name passed max_deviation detail")


def closed_form_agreement(grid_steps: int, inject: str | None = None) -> SuiteResult:
    """Numeric pipeline vs published polynomial on a (mu, p) grid."""
    if grid_steps < 1:
        # an empty grid would check nothing and pass
        raise ParameterError(f"closed-form grid needs >= 1 step per axis, got {grid_steps}")
    points = 6 * grid_steps * grid_steps
    if points > MAX_RANGE_STEPS:
        raise ParameterError(
            f"closed-form grid of {grid_steps} steps needs {points} points; "
            f"at most {MAX_RANGE_STEPS}"
        )
    if inject is not None and inject not in CLOSED_FORM_KEYS:
        # an unknown key would perturb nothing and pass
        raise ParameterError(
            f"cannot inject an error into {inject!r}; known: {', '.join(CLOSED_FORM_KEYS)}"
        )
    grid = linspace(0.0, 1.0, grid_steps)
    worst = 0.0
    worst_case = ""
    for base in _ENCODED:
        for model in _MODELS:
            key = f"{base}-model{model}"
            for p in grid:
                for mu in grid:
                    r = evaluate(base, model, mu, p)
                    f, cf = r.f_numeric, r.f_closed_form
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


def sparse_dense_agreement() -> SuiteResult:
    """Sparse fidelity path vs dense-matrix oracle at random parameter points."""
    import numpy as np
    rng = np.random.default_rng(SPARSE_DENSE_SEED)
    worst = 0.0
    for base in _ENCODED:
        _, rs = scheme_recovery(base, "bit")
        for _ in range(SPARSE_DENSE_POINTS):
            model = int(rng.integers(1, 3))
            p = float(rng.uniform())
            mu = float(rng.uniform())
            channel = build_channel(ChannelParams(p=p, mu=mu, n=rs.code.n, model=model))
            sparse = entanglement_fidelity_corrected(channel, rs)
            dense = dense_oracle_fidelity(channel, rs)
            worst = max(worst, abs(sparse - dense))
    detail = f"{SPARSE_DENSE_POINTS} random points per scheme, seed {SPARSE_DENSE_SEED}"
    return SuiteResult("sparse-dense", worst <= ORACLE_TOL, worst, detail)


def correctable_census() -> SuiteResult:
    """Correctable/detectable structure for all three schemes, exact masks.

    The correctable set is the one the fidelity kernel uses: the members of
    the cached recovery's operators.
    """
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
        corr = [op for rop in rs.ops for op in rop.members]
        nondet = non_detectable_set(code, _flavored_strings(code.n, "bit"))
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


def flavor_symmetry() -> SuiteResult:
    """Phase-flavor channel, code and recovery give the bit-flavor fidelity.

    Each flavor runs through its own channel and its own recovery set, not
    through ``evaluate``, which maps the phase flavor onto the bit flavor;
    the bare qubit runs through its trivial one-qubit code.
    """
    grid = linspace(0.0, 1.0, FLAVOR_GRID_STEPS)

    def fidelity(base: str, flavor: str, model: int, mu: float, p: float) -> float:
        _, rs = scheme_recovery(base, flavor)
        params = ChannelParams(p=p, mu=mu, n=rs.code.n, flavor=flavor, model=model)
        return entanglement_fidelity_corrected(build_channel(params), rs)

    worst = 0.0
    for model in _MODELS:
        for base in BASE_SCHEMES:
            for p in grid:
                for mu in grid:
                    bit = fidelity(base, "bit", model, mu, p)
                    phase = fidelity(base, "phase", model, mu, p)
                    worst = max(worst, abs(bit - phase))
    detail = f"grid {FLAVOR_GRID_STEPS}x{FLAVOR_GRID_STEPS}, 4 schemes, both models"
    return SuiteResult("flavor-symmetry", worst <= FLAVOR_TOL, worst, detail)


def model_mu0_agreement() -> SuiteResult:
    """Merged Kraus sets of the two models coincide at mu = 0."""
    worst = 0.0
    identical = True
    for n in range(1, 7):
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            m1 = build_channel(ChannelParams(p=p, mu=0.0, n=n, model=MODEL_I)).merged()
            m2 = build_channel(ChannelParams(p=p, mu=0.0, n=n, model=MODEL_II)).merged()
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
    ps = linspace(0.0, 1.0, 11)
    for p in ps:
        worst = max(worst, abs(evaluate("bit3", MODEL_I, 1.0, p).f_numeric - (1.0 - p)))
        for model in _MODELS:
            worst = max(worst, abs(evaluate("dfs2", model, 1.0, p).f_numeric - 1.0))
        worst = max(worst, abs(evaluate("concat6", MODEL_II, 1.0, p).f_numeric - 1.0))
    for mu in ps:
        for model in _MODELS:
            for scheme in BASE_SCHEMES:
                worst = max(worst, abs(evaluate(scheme, model, mu, 0.0).f_numeric - 1.0))
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
    for mu in linspace(0.0, 1.0, 11):
        got = evaluate("concat6", MODEL_II, mu, 0.1).failure_prob
        dev = abs(got - 0.054432 * (1.0 - mu))
        worst = max(worst, dev)
        if dev > 1e-10:
            problems.append(f"concat6 failure prob at mu={mu:g}")
            break

    detail = "model II, p=0.1: dfs2 above 4/9, bit3 below 0.2963, concat6 everywhere"
    if problems:
        detail += "; " + "; ".join(problems)
    return SuiteResult("thresholds", not problems, worst, detail)


SUITES = dict(zip(SUITE_NAMES, (
    closed_form_agreement,
    kraus_normalization,
    recovery_trace_preservation,
    sparse_dense_agreement,
    correctable_census,
    flavor_symmetry,
    model_mu0_agreement,
    endpoint_identities,
    threshold_reproduction,
), strict=True))


def run_suites(
    names: list[str] | None,
    grid_steps: int,
    inject: str | None = None,
) -> list[SuiteResult]:
    selected = names if names is not None else list(SUITES)
    if not selected:
        # no suite would run, so the run would pass having checked nothing
        raise ParameterError("no verification suite selected")
    for name in selected:
        if name not in SUITES:
            raise ParameterError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    if inject is not None and "closed-form" not in selected:
        # no other suite reads the injected error, so the run would pass
        raise ParameterError("an injected error needs the closed-form suite")
    results = []
    for name in selected:
        if name == "closed-form":
            results.append(closed_form_agreement(grid_steps, inject))
        else:
            results.append(SUITES[name]())
    return results

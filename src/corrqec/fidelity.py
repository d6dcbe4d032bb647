"""Entanglement fidelity: numeric evaluation, closed forms, thresholds.

For a channel with Kraus operators sqrt(w_k) A_k and a recovery set {R_l}
(plus optional complement projector R_perp), the corrected entanglement
fidelity of the maximally mixed logical state is

    F = (1/4) * sum_{k,l} w_k * |tr [R_l A_k]_C|^2,
    tr [M]_C = <0L|M|0L> + <1L|M|1L>,

with R_l = |0L><v_l^0| + |1L><v_l^1| the restricted trace reduces to
<v_l^0|A_k|0L> + <v_l^1|A_k|1L>.  The complement projector contributes one
more restricted trace, which must vanish because the code space is
contained in the syndrome spaces; a nonzero value raises.

For Pauli noise the restricted traces depend only on the Pauli A_k, never
on (mu, p).  The recovery set therefore memoizes, per Pauli, the nonzero
squares |tr[R_l A_k]_C|^2, computed with the sparse arithmetic above (and
checked against the complement contract) the first time the Pauli occurs.
A fidelity point is then one pass over the channel's terms adding w_k * s
for each memoized square s, in the same order and with the same operands
as recomputing every trace, so the result is bit-identical to it.

The evaluator consumes the channel's canonical (unmerged) term list.
Merging terms that carry the same Pauli adds their weights w, which leaves
every sum of w * |tr|^2 unchanged up to rounding, so the merged view agrees.

Closed-form fidelity polynomials in (mu, p) exist for the six
(scheme in {bit3, dfs2, concat6}) x (model in {1, 2}) pairs and are
evaluated exactly as published; ``closed_form`` returns None for any other
pair (``unencoded``).  A scheme is *effective* at (mu, p) when
its failure probability 1 - F stays strictly below the bare error
probability p; threshold curves report where that holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    NoiseChannel,
    build_channel,
)
from .errors import (
    CapacityError,
    ContractViolationError,
    DimensionError,
    ParameterError,
)
from .pauli import PauliString, apply_to_state
from .recovery import RecoverySet, recovery_dense
from .schemes import resolve_scheme, scheme_qubits, scheme_recovery

COMPLEMENT_TRACE_TOL = 1e-10
THRESHOLD_GRID_POINTS = 1024
THRESHOLD_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class FidelityResult:
    mu: float
    p: float
    scheme: str
    model: int
    f_numeric: float
    f_closed_form: float | None
    failure_prob: float


@dataclass(frozen=True)
class ThresholdPoint:
    """Effectiveness structure of one scheme at fixed p, over mu in [0, 1].

    ``regions`` lists the maximal closed subintervals where the failure
    probability stays below p; ``mu_star`` is the first interior crossing
    (None when the boundary never crosses inside (0, 1)); ``branch``
    summarizes the topology: 'all', 'none', 'above', 'below', 'inside',
    'outside', or 'mixed'.
    """

    p: float
    mu_star: float | None
    branch: str
    regions: tuple[tuple[float, float], ...]


def entanglement_fidelity_corrected(channel: NoiseChannel, rs: RecoverySet) -> float:
    """Fidelity of recovery-after-channel on the logical qubit of ``rs.code``."""
    if channel.n != rs.code.n:
        raise DimensionError(f"channel acts on {channel.n} qubits, code has {rs.code.n}")
    memo = rs.restricted_traces
    total = 0.0
    for w, op in channel.terms:
        key = (op.x_mask, op.z_mask, op.phase)
        squares = memo.get(key)
        if squares is None:
            squares = memo[key] = _squared_restricted_traces(rs, op)
        for s in squares:
            total += w * s
    return total / 4.0


def _squared_restricted_traces(rs: RecoverySet, op: PauliString) -> tuple[float, ...]:
    """Nonzero |tr[R_l op]_C|^2, isometries in order, then the complement.

    Exact zeros are dropped: adding w * 0.0 leaves the kernel's sum unchanged.
    """
    zero, one = rs.code.logical_zero, rs.code.logical_one
    y0 = apply_to_state(op, zero)
    y1 = apply_to_state(op, one)
    traces = [rop.v0.inner(y0) + rop.v1.inner(y1) for rop in rs.ops]
    if rs.complement:
        t = sum(
            zero.inner(r) * r.inner(y0) + one.inner(r) * r.inner(y1)
            for r in rs.complement
        )
        if abs(t) > COMPLEMENT_TRACE_TOL:
            raise ContractViolationError(
                "complement projector has a nonzero restricted trace"
            )
        traces.append(t)
    squares = (t.real * t.real + t.imag * t.imag for t in traces)
    return tuple(s for s in squares if s != 0.0)


def entanglement_fidelity_unencoded(channel: NoiseChannel) -> float:
    """(1/N^2) * sum_k |tr A_k|^2; only identity Paulis have nonzero trace."""
    dim = 1 << channel.n
    total = 0.0
    for w, op in channel.terms:
        if op.is_identity:
            tr = op.sign * dim
            total += w * abs(tr) ** 2
    return total / (dim * dim)


def dense_oracle_fidelity(channel: NoiseChannel, rs: RecoverySet) -> float:
    """Same fidelity sum via dense matrices and an explicit code projector.

    The rows P R_l are stacked once per call, from recovery matrices
    streamed one at a time; each Kraus term then costs one dense Pauli and
    one matrix-vector product.
    """
    code = rs.code
    if code.n > 6:
        raise CapacityError(f"dense oracle supports n <= 6, got {code.n}")
    if channel.n != code.n:
        raise DimensionError(f"channel acts on {channel.n} qubits, code has {code.n}")
    d0 = code.logical_zero.dense()
    d1 = code.logical_one.dense()
    proj = np.outer(d0, d0.conj()) + np.outer(d1, d1.conj())
    # tr[P R A P] = tr[(P R) A] = sum_ij (P R)_ij A_ji: with row l holding
    # (P R_l)^T flattened, one mat-vec with A flattened gives every trace
    dim = 1 << code.n
    projected = np.empty((len(rs.ops) + bool(rs.complement), dim * dim), dtype=complex)
    for row, rmat in zip(projected, recovery_dense(rs)):
        row[:] = (proj @ rmat).T.ravel()
    total = 0.0
    for w, op in channel.terms:
        t = projected @ op.dense().ravel()
        total += w * np.vdot(t, t).real
    return float(total / 4.0)


# --- closed forms ----------------------------------------------------------

def _bit3_model1(mu: float, p: float) -> float:
    return (
        mu**2 * (2 * p**3 - 3 * p**2 + p)
        + mu * (-4 * p**3 + 6 * p**2 - 2 * p)
        + (2 * p**3 - 3 * p**2 + 1)
    )


def _bit3_model2(mu: float, p: float) -> float:
    return mu * (-3 * p**3 + 6 * p**2 - 3 * p) + (2 * p**3 - 3 * p**2 + 1)


def _dfs2_model1(mu: float, p: float) -> float:
    return mu * (-2 * p**2 + 2 * p) + (2 * p**2 - 2 * p + 1)


def _dfs2_model2(mu: float, p: float) -> float:
    # published identical to the model-I polynomial
    return mu * (-2 * p**2 + 2 * p) + (2 * p**2 - 2 * p + 1)


def _concat6_model1(mu: float, p: float) -> float:
    return (
        mu**5 * (-8 * p**6 + 24 * p**5 - 24 * p**4 + 8 * p**3)
        + mu**4 * (40 * p**6 - 120 * p**5 + 130 * p**4 - 60 * p**3 + 10 * p**2)
        + mu**3 * (-80 * p**6 + 240 * p**5 - 264 * p**4 + 128 * p**3 - 26 * p**2 + 2 * p)
        + mu**2 * (80 * p**6 - 240 * p**5 + 252 * p**4 - 104 * p**3 + 10 * p**2 + 2 * p)
        + mu * (-40 * p**6 + 120 * p**5 - 112 * p**4 + 24 * p**3 + 12 * p**2 - 4 * p)
        + (8 * p**6 - 24 * p**5 + 18 * p**4 + 4 * p**3 - 6 * p**2 + 1)
    )


def _concat6_model2(mu: float, p: float) -> float:
    return mu * (-8 * p**6 + 24 * p**5 - 18 * p**4 - 4 * p**3 + 6 * p**2) + (
        8 * p**6 - 24 * p**5 + 18 * p**4 + 4 * p**3 - 6 * p**2 + 1
    )


_CLOSED_FORMS = {
    ("bit3", MODEL_I): _bit3_model1,
    ("bit3", MODEL_II): _bit3_model2,
    ("dfs2", MODEL_I): _dfs2_model1,
    ("dfs2", MODEL_II): _dfs2_model2,
    ("concat6", MODEL_I): _concat6_model1,
    ("concat6", MODEL_II): _concat6_model2,
}

CLOSED_FORM_KEYS = tuple(f"{base}-model{model}" for base, model in _CLOSED_FORMS)


def closed_form(scheme: str, model: int, mu: float, p: float) -> float | None:
    """Published fidelity polynomial for (scheme, model) at (mu, p); None if unpublished."""
    base, _ = resolve_scheme(scheme)
    poly = _CLOSED_FORMS.get((base, model))
    if poly is None:
        return None
    if not 0.0 <= mu <= 1.0 or not 0.0 <= p <= 1.0:
        raise ParameterError("mu and p must lie in [0, 1]")
    return poly(mu, p)


# --- end-to-end evaluation -------------------------------------------------

def evaluate(scheme: str, model: int, mu: float, p: float) -> FidelityResult:
    """Numeric fidelity for one (scheme, model, mu, p) point, plus closed form.

    Hadamard conjugation maps the phase-flavor channel, code, and recovery
    jointly onto their bit-flavor counterparts, an exact equivalence, so the
    fidelity is always evaluated on the canonical bit-flavor representation;
    emitted tables are therefore flavor-independent bit for bit, and a phase
    alias such as ``phase3`` gives the numbers of its base scheme.
    """
    base, _ = resolve_scheme(scheme)
    n = scheme_qubits(base)
    channel = build_channel(ChannelParams(p=p, mu=mu, n=n, flavor="bit", model=model))
    if base == "unencoded":
        f = entanglement_fidelity_unencoded(channel)
    else:
        _, rs = scheme_recovery(base, "bit")
        f = entanglement_fidelity_corrected(channel, rs)
    return FidelityResult(
        mu=mu,
        p=p,
        scheme=scheme,
        model=model,
        f_numeric=f,
        f_closed_form=closed_form(base, model, mu, p),
        failure_prob=1.0 - f,
    )


def failure_probability(scheme: str, model: int, mu: float, p: float) -> float:
    """1 - F, from the closed form when published, else the numeric pipeline."""
    cf = closed_form(scheme, model, mu, p)
    if cf is not None:
        return 1.0 - cf
    return evaluate(scheme, model, mu, p).failure_prob


def threshold_mu(scheme: str, model: int, p: float) -> ThresholdPoint:
    """Where, in mu, the scheme beats the bare error probability p.

    Scans sign of failure_prob(mu) - p on a uniform grid, refines each sign
    change by bisection, and reports the closed effective subintervals.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie strictly inside (0, 1), got {p}")

    def excess(mu: float) -> float:
        return failure_probability(scheme, model, mu, p) - p

    grid = np.linspace(0.0, 1.0, THRESHOLD_GRID_POINTS)
    values = [excess(float(mu)) for mu in grid]

    def status(v: float) -> int:
        if v < -THRESHOLD_ZERO_TOL:
            return -1
        if v > THRESHOLD_ZERO_TOL:
            return 1
        return 0

    def bisect(lo: float, hi: float, flo: float) -> float:
        # one strict sign change inside [lo, hi]
        for _ in range(100):
            if hi - lo <= 1e-13:
                break
            mid = 0.5 * (lo + hi)
            fmid = excess(mid)
            if fmid == 0.0:
                return mid
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    statuses = [status(v) for v in values]
    regions: list[tuple[float, float]] = []
    crossings: list[float] = []
    i = 0
    while i < THRESHOLD_GRID_POINTS:
        if statuses[i] > 0:
            i += 1
            continue
        j = i
        while j + 1 < THRESHOLD_GRID_POINTS and statuses[j + 1] <= 0:
            j += 1
        if any(statuses[k] < 0 for k in range(i, j + 1)):
            if i == 0:
                lo = 0.0
            elif statuses[i] == 0:
                # the boundary solves failure prob = p exactly on a grid point
                lo = float(grid[i])
                crossings.append(lo)
            else:
                lo = bisect(float(grid[i - 1]), float(grid[i]), values[i - 1])
                crossings.append(lo)
            if j == THRESHOLD_GRID_POINTS - 1:
                hi = 1.0
            elif statuses[j] == 0:
                hi = float(grid[j])
                crossings.append(hi)
            else:
                hi = bisect(float(grid[j]), float(grid[j + 1]), values[j])
                crossings.append(hi)
            regions.append((lo, hi))
        i = j + 1

    return ThresholdPoint(
        p=p,
        mu_star=crossings[0] if crossings else None,
        branch=_branch(regions),
        regions=tuple(regions),
    )


def _branch(regions: list[tuple[float, float]]) -> str:
    edge = THRESHOLD_ZERO_TOL
    if not regions:
        return "none"
    if len(regions) == 1:
        lo, hi = regions[0]
        starts_at_zero = lo <= edge
        ends_at_one = hi >= 1.0 - edge
        if starts_at_zero and ends_at_one:
            return "all"
        if starts_at_zero:
            return "below"
        if ends_at_one:
            return "above"
        return "inside"
    if len(regions) == 2 and regions[0][0] <= edge and regions[1][1] >= 1.0 - edge:
        return "outside"
    return "mixed"

"""Entanglement fidelity: numeric evaluation, closed forms, thresholds.

For a channel with Kraus operators sqrt(w_k) A_k and a recovery set {R_l}
(plus optional complement projector R_perp), the corrected entanglement
fidelity of the maximally mixed logical state is

    F = (1/4) * sum_{k,l} w_k * |tr [R_l A_k]_C|^2,
    tr [M]_C = <0L|M|0L> + <1L|M|1L>,

with R_l = |0L><v_l^0| + |1L><v_l^1| the restricted trace reduces to
<v_l^0|A_k|0L> + <v_l^1|A_k|1L>.  The complement projector's restricted
trace vanishes for every A_k, because its vectors are orthogonal to the
code space; ``RecoverySet`` checks that once, when it is built, so the
kernel sums over the isometries only.

For Pauli noise the restricted traces depend only on the Pauli A_k, never
on (mu, p).  The recovery set therefore memoizes, per Pauli, the nonzero
squares |tr[R_l A_k]_C|^2, computed with the sparse arithmetic above the
first time the Pauli occurs.  From that memo it builds, once per builder's
cached Pauli tuple, a term table: the (k, square) pairs of the nonzero
squares in term order.  A fidelity point is then one pass over the table
adding w_k * s, the same operands in the same order as recomputing every
trace, so the result is bit-identical to it.  A channel whose Paulis are
not a builder's tuple (a merged view, or one built by hand) takes the same
pass through the memo and leaves no table behind.

The evaluator consumes the channel's canonical (unmerged) term list.
Merging terms that carry the same Pauli adds their weights w, which leaves
every sum of w * |tr|^2 unchanged up to rounding, so the merged view agrees.

Closed-form fidelity polynomials in (mu, p) exist for the six
(scheme in {bit3, dfs2, concat6}) x (model in {1, 2}) pairs and are
evaluated exactly as published; ``closed_form`` returns None for
``unencoded``, for which the paper gives no polynomial, and refuses a model
other than 1 or 2.  A scheme is *effective* at (mu, p) when it beats the
bare qubit, the trivial one-qubit code, whose fidelity is 1 - p:
threshold curves report where F_unencoded - F < 0.

Thresholds do not use the published tables: for these Pauli channels F is
the total channel weight of the error strings the recovery undoes.  The
channel builder's own weight code, run on the symbols mu and p, gives that
as an integer-coefficient polynomial per (scheme, model), derived once from
the correctable set; the bare qubit's set {I} derives 1 - p.  At a float p
the difference of two such polynomials becomes a polynomial in mu with
exact rational coefficients, whose real roots are isolated and rounded with
integer arithmetic only (``roots``), so no tolerance decides a sign.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby
from math import prod

from .channels import MODEL_I, MODEL_II, ChannelParams, NoiseChannel, build_channel
from .channels import _chain_weights, _check_model, _flavored_strings
from .channels import _model2_strings, _model2_weights
from .errors import CapacityError, DimensionError, ParameterError
from .pauli import PauliString, apply_to_state
from .recovery import RecoverySet, recovery_dense
from .schemes import resolve_scheme, scheme_recovery


# one evaluated point; f_closed_form is None where no polynomial is published
FidelityResult = namedtuple(
    "FidelityResult", "mu p scheme model f_numeric f_closed_form failure_prob"
)


class ThresholdPoint(namedtuple("ThresholdPoint", "p mu_star branch regions")):
    """Effectiveness structure of one scheme at fixed p, over mu in [0, 1].

    ``regions`` lists the maximal closed subintervals where the failure
    probability stays below p; ``mu_star`` is the first interior crossing
    (None when the boundary never crosses inside (0, 1)); ``branch``
    summarizes the topology: 'all', 'none', 'above', 'below', 'inside',
    'outside', or 'mixed'.
    """

    __slots__ = ()


def entanglement_fidelity_corrected(channel: NoiseChannel, rs: RecoverySet) -> float:
    """Fidelity of recovery-after-channel on the logical qubit of ``rs.code``."""
    if channel.n != rs.code.n:
        raise DimensionError(f"channel acts on {channel.n} qubits, code has {rs.code.n}")
    paulis = channel.paulis
    entry = rs.term_tables.get(id(paulis))
    if entry is None:
        entry = (paulis, _term_table(rs, paulis))
        if channel.shared:
            # the entry holds the tuple, so its id cannot be reused while it is kept
            rs.term_tables[id(paulis)] = entry
    weights = channel.weights
    total = 0.0
    # not sum(): from Python 3.12 it compensates float rounding, changing the last bits
    for i, s in entry[1]:
        total += weights[i] * s
    return total / 4.0


def _term_table(
    rs: RecoverySet, paulis: tuple[PauliString, ...]
) -> tuple[tuple[int, float], ...]:
    """(term index, square) for every nonzero square of every Pauli, in term order."""
    memo = rs.restricted_traces
    table = []
    for i, op in enumerate(paulis):
        key = (op.x_mask, op.z_mask, op.phase)
        squares = memo.get(key)
        if squares is None:
            squares = memo[key] = _squared_restricted_traces(rs, op)
        table.extend((i, s) for s in squares)
    return tuple(table)


def _squared_restricted_traces(rs: RecoverySet, op: PauliString) -> tuple[float, ...]:
    """Nonzero |tr[R_l op]_C|^2 of the isometries, in order.

    The complement projector adds nothing: ``RecoverySet`` guarantees that
    its restricted trace vanishes.  Exact zeros are dropped: adding w * 0.0
    leaves the kernel's sum unchanged.
    """
    y0 = apply_to_state(op, rs.code.logical_zero)
    y1 = apply_to_state(op, rs.code.logical_one)
    traces = [rop.v0.inner(y0) + rop.v1.inner(y1) for rop in rs.ops]
    squares = (t.real * t.real + t.imag * t.imag for t in traces)
    return tuple(s for s in squares if s != 0.0)


def entanglement_fidelity_unencoded(channel: NoiseChannel) -> float:
    """(1/N^2) * sum_k |tr A_k|^2; only identity Paulis have nonzero trace."""
    dim = 1 << channel.n
    total = 0.0
    for w, op in zip(channel.weights, channel.paulis):
        if op.is_identity:
            tr = op.sign * dim
            total += w * abs(tr) ** 2
    return total / (dim * dim)


def dense_oracle_fidelity(channel: NoiseChannel, rs: RecoverySet) -> float:
    """Same fidelity sum via dense matrices and an explicit code projector.

    The rows P R_l are stacked on the first call for a recovery set, from
    recovery matrices streamed one at a time, and kept on the set
    (``rs.projected_rows``).  The first time a Pauli occurs for the set,
    it costs one dense Pauli and one matrix-vector product against the
    rows, whose squared norm sum_l |tr[P R_l A]|^2 depends on the Pauli
    only, not on (mu, p); the set keeps it in ``rs.dense_squares``, keyed
    by the ``PauliString``.  Each Kraus term then adds w * square, in term
    order and zeros included.  The dense Pauli is built from single-qubit
    factors, one Kronecker step per cached block of up to three qubits
    (``PauliString.dense``), independently of the sparse kernel, whose
    memo the oracle never reads.
    """
    code = rs.code
    if code.n > 6:
        raise CapacityError(f"dense oracle supports n <= 6, got {code.n}")
    if channel.n != code.n:
        raise DimensionError(f"channel acts on {channel.n} qubits, code has {code.n}")
    import numpy as np
    projected = rs.projected_rows
    if projected is None:
        d0 = code.logical_zero.dense()
        d1 = code.logical_one.dense()
        proj = np.outer(d0, d0.conj()) + np.outer(d1, d1.conj())
        # tr[P R A P] = tr[(P R) A] = sum_ij (P R)_ij A_ji: with row l holding
        # (P R_l)^T flattened, one mat-vec with A flattened gives every trace
        dim = 1 << code.n
        projected = np.empty((len(rs.ops) + bool(rs.complement), dim * dim), dtype=complex)
        for row, rmat in zip(projected, recovery_dense(rs)):
            row[:] = (proj @ rmat).T.ravel()
        projected.flags.writeable = False
        # RecoverySet is frozen; the rows are a cache, like restricted_traces
        object.__setattr__(rs, "projected_rows", projected)
    squares = rs.dense_squares
    total = 0.0
    for w, op in channel.terms:
        square = squares.get(op)
        if square is None:
            t = projected @ op.dense().ravel()
            square = squares[op] = np.vdot(t, t).real
        total += w * square
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
# the verification suites in run order, named here so that the CLI offers
# them without importing ``checks``, whose SUITES maps each to its function
SUITE_NAMES = (
    "closed-form", "kraus-normalization", "trace-preservation", "sparse-dense",
    "correctable", "flavor-symmetry", "model-mu0", "endpoints", "thresholds",
)


def closed_form(scheme: str, model: int, mu: float, p: float) -> float | None:
    """Published fidelity polynomial for (scheme, model) at (mu, p); None if unpublished."""
    base, _ = resolve_scheme(scheme)
    _check_model(model)
    if not 0.0 <= mu <= 1.0 or not 0.0 <= p <= 1.0:
        raise ParameterError("mu and p must lie in [0, 1]")
    poly = _CLOSED_FORMS.get((base, model))
    return None if poly is None else poly(mu, p)


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
    _, rs = scheme_recovery(base, "bit")
    # ChannelParams checks mu, p and model, so the published polynomial
    # below needs no range check of its own
    channel = build_channel(ChannelParams(p, mu, rs.code.n, "bit", model))
    if base == "unencoded":
        f = entanglement_fidelity_unencoded(channel)
    else:
        f = entanglement_fidelity_corrected(channel, rs)
    poly = _CLOSED_FORMS.get((base, model))
    return FidelityResult(mu, p, scheme, model, f, None if poly is None else poly(mu, p), 1.0 - f)


def threshold_mu(scheme: str, model: int, p: float) -> ThresholdPoint:
    """Where, in mu, the scheme beats the bare qubit.

    Solves g(mu) = F_unencoded(mu, p) - F(mu, p) = 1 - p - F(mu, p)
    exactly on [0, 1] (``roots``), with each F the fidelity polynomial
    derived from its scheme's correctable set and p taken as the dyadic
    rational it is.  Boundaries are the correctly rounded roots where g
    changes sign; a root where g keeps its sign bounds no region.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie strictly inside (0, 1), got {p}")
    base, _ = resolve_scheme(scheme)
    # before the cache: True and 2.0 would hit the entries of 1 and 2
    _check_model(model)
    g = _excess_at(_fidelity_polynomial("unencoded", model), _fidelity_polynomial(base, model), p)
    if not g:
        # the same fidelity as the bare qubit for every mu: never strictly better
        return ThresholdPoint(p=p, mu_star=None, branch="none", regions=())
    from .roots import sign_structure
    edges, signs = sign_structure(g)
    regions = []
    for effective, run in groupby(range(len(signs)), key=lambda i: signs[i] < 0):
        if effective:
            gaps = list(run)
            regions.append((edges[gaps[0]], edges[gaps[-1] + 1]))
    crossings = [
        edges[i] for i in range(1, len(signs)) if (signs[i - 1] < 0) != (signs[i] < 0)
    ]
    return ThresholdPoint(
        p=p,
        mu_star=crossings[0] if crossings else None,
        branch=_branch(regions),
        regions=tuple(regions),
    )


def _branch(regions: list[tuple[float, float]]) -> str:
    if not regions:
        return "none"
    if len(regions) == 1:
        lo, hi = regions[0]
        starts_at_zero = lo == 0.0
        ends_at_one = hi == 1.0
        if starts_at_zero and ends_at_one:
            return "all"
        if starts_at_zero:
            return "below"
        if ends_at_one:
            return "above"
        return "inside"
    if len(regions) == 2 and regions[0][0] == 0.0 and regions[1][1] == 1.0:
        return "outside"
    return "mixed"


# --- derived fidelity polynomials ------------------------------------------

class _Poly(dict):
    """An integer-coefficient polynomial in (mu, p): {(mu power, p power): c}.

    It has the arithmetic of the channel builder's weight code (+ and * with
    ints and with itself, int - poly, poly ** int), so that code runs on the
    symbols mu and p.
    """

    def __add__(self, other: int | _Poly) -> _Poly:
        out = _Poly(self)
        for key, c in _poly(other).items():
            out[key] = out.get(key, 0) + c
        return out

    def __mul__(self, other: int | _Poly) -> _Poly:
        out, other = _Poly(), _poly(other)
        for (i, j), a in self.items():
            for (k, l), b in other.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
        return out

    def __rsub__(self, other: int) -> _Poly:
        return -1 * self + other

    def __pow__(self, k: int) -> _Poly:
        return prod([self] * k, start=_poly(1))

    __radd__, __rmul__ = __add__, __mul__


def _poly(value: int | _Poly) -> _Poly:
    return value if isinstance(value, _Poly) else _Poly({(0, 0): value})


@lru_cache(maxsize=None)
def _fidelity_polynomial(base: str, model: int) -> tuple[tuple[int, ...], ...]:
    """F(mu, p) derived from the code; row i lists the p-coefficients of mu^i.

    F is the total channel weight of the error strings the recovery undoes:
    the correctable set, which the recovery operators' members partition.
    """
    code, rs = scheme_recovery(base, "bit")
    n, p, mu = code.n, _Poly({(0, 1): 1}), _Poly({(1, 0): 1})
    if model == MODEL_I:
        paulis, weights = _flavored_strings(n, "bit"), _chain_weights(n, p, mu)
    else:
        paulis, weights = _model2_strings(n, "bit"), _model2_weights(n, p, mu)
    kept = {op for rop in rs.ops for op in rop.members}
    total = sum(w for w, op in zip(weights, paulis) if op in kept)
    terms = {key: c for key, c in total.items() if c}
    rows = [[0] * (1 + max(j for _, j in terms)) for _ in range(1 + max(i for i, _ in terms))]
    for (i, j), c in terms.items():
        rows[i][j] = c
    return tuple(tuple(row) for row in rows)


def _excess_at(
    first: tuple[tuple[int, ...], ...], second: tuple[tuple[int, ...], ...], p: float
) -> list[int]:
    """Integer coefficients in mu of a positive multiple of F_first - F_second at p.

    p is the dyadic rational a / b it is; the multiple is b^deg, with deg
    the larger p-degree of the two.  Trailing zeros are dropped, so the list
    is empty when the two fidelities agree for every mu.
    """
    a, b = float(p).as_integer_ratio()
    deg = max(len(row) for row in first + second) - 1
    scale = [a**j * b ** (deg - j) for j in range(deg + 1)]
    g = [0] * max(len(first), len(second))
    for sign, rows in ((1, first), (-1, second)):
        for i, row in enumerate(rows):
            g[i] += sign * sum(c * s for c, s in zip(row, scale))
    while g and g[-1] == 0:
        g.pop()
    return g

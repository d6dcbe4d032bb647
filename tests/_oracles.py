"""Independent oracles used across the test suite.

The dense ones are deliberately built from scratch with numpy kron products
rather than the library's own dense conversions, so mask/phase bookkeeping
is checked against plain matrix arithmetic.  ``per_point_fidelity`` is the
corrected-fidelity loop that recomputes every restricted trace at every
point; the memoized kernel must reproduce it bit for bit.
``model1_weights`` and ``model2_weights`` compute each channel weight
mask by mask; the channel builders must reproduce them bit for bit.
``per_row_dense_fidelity`` takes one dense dot product per (term, recovery
operator) pair; the library's dense oracle must agree with it to rounding.
"""

import math

import numpy as np

from corrqec.errors import ContractViolationError
from corrqec.fidelity import COMPLEMENT_TRACE_TOL
from corrqec.pauli import apply_to_state

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

UNIT = {0: 1, 1: 1j, 2: -1, 3: -1j}


def dense_pauli(n, x_mask, z_mask, phase=0):
    """i**phase times the X/Z tensor product; qubit 1 = least significant bit."""
    mat = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        factor = I2
        if (x_mask >> q) & 1 and (z_mask >> q) & 1:
            factor = X2 @ Z2
        elif (x_mask >> q) & 1:
            factor = X2
        elif (z_mask >> q) & 1:
            factor = Z2
        mat = np.kron(mat, factor)
    return UNIT[phase % 4] * mat


def dense_state(state):
    v = np.zeros(1 << state.n, dtype=complex)
    for idx, amp in state.amplitudes.items():
        v[idx] = amp
    return v


def choi_matrix(kraus_dense):
    """Choi matrix of a channel given dense Kraus operators (column-stacking)."""
    dim = kraus_dense[0].shape[0]
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in kraus_dense:
        vec = a.reshape(-1, order="F")
        choi += np.outer(vec, vec.conj())
    return choi


def per_point_fidelity(code, channel, rs):
    """(1/4) sum_{k,l} w_k |tr[R_l A_k]_C|^2, every trace recomputed per term."""
    zero, one = code.logical_zero, code.logical_one
    total = 0.0
    for w, op in channel.terms:
        y0 = apply_to_state(op, zero)
        y1 = apply_to_state(op, one)
        for rop in rs.ops:
            t = rop.v0.inner(y0) + rop.v1.inner(y1)
            total += w * (t.real * t.real + t.imag * t.imag)
        if rs.complement:
            t = sum(
                zero.inner(r) * r.inner(y0) + one.inner(r) * r.inner(y1)
                for r in rs.complement
            )
            if abs(t) > COMPLEMENT_TRACE_TOL:
                raise ContractViolationError(
                    "complement projector has a nonzero restricted trace"
                )
            total += w * (t.real * t.real + t.imag * t.imag)
    return total / 4.0


def model1_weights(n, p, mu):
    """Markov-chain probability of every error string, one loop per mask."""
    weights = []
    for mask in range(1 << n):
        prev = mask & 1
        w = p if prev else 1.0 - p
        for k in range(1, n):
            cur = (mask >> k) & 1
            marginal = p if cur else 1.0 - p
            w *= (1.0 - mu) * marginal + (mu if cur == prev else 0.0)
            prev = cur
        weights.append(w)
    return weights


def model2_weights(n, p, mu):
    """Canonical model II weights: 2^n memoryless terms, then the two mu terms."""
    weights = []
    for mask in range(1 << n):
        k = mask.bit_count()
        iid = p**k * (1.0 - p) ** (n - k)
        weights.append((1.0 - mu) * iid)
    survive = (1.0 - p) ** n
    return weights + [mu * survive, mu * (1.0 - survive)]


def per_row_dense_fidelity(code, channel, rs):
    """(1/4) sum_{k,l} |tr[P R_l sqrt(w_k) A_k]|^2, one dot product per (k, l)."""
    d0, d1 = dense_state(code.logical_zero), dense_state(code.logical_one)
    proj = np.outer(d0, d0.conj()) + np.outer(d1, d1.conj())
    mats = [
        np.outer(d0, dense_state(op.v0).conj()) + np.outer(d1, dense_state(op.v1).conj())
        for op in rs.ops
    ]
    if rs.complement:
        mats.append(sum(np.outer(dense_state(r), dense_state(r).conj()) for r in rs.complement))
    rows = [(proj @ m).ravel() for m in mats]
    total = 0.0
    for w, op in channel.terms:
        a = math.sqrt(w) * dense_pauli(code.n, op.x_mask, op.z_mask, op.phase)
        a_transposed = a.T.ravel()
        for row in rows:
            t = row @ a_transposed
            total += t.real**2 + t.imag**2
    return float(total / 4.0)

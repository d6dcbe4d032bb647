"""Independent oracles used across the test suite.

The dense ones are deliberately built from scratch with numpy kron products
rather than the library's own dense conversions, so mask/phase bookkeeping
is checked against plain matrix arithmetic.  ``per_point_fidelity`` is the
corrected-fidelity loop that recomputes every restricted trace at every
point; the memoized kernel must reproduce it bit for bit.
"""

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

"""Signed Pauli-string algebra on bitmasks, plus sparse state vectors.

Conventions, fixed library-wide:

* Qubit q (1-based, q = 1..n) is bit q-1 of a computational-basis index,
  so qubit 1 is the least significant bit.  A ket written left-to-right as
  ``|q1 q2 ... qn>`` therefore has integer index ``sum(q_j << (j-1))``.
* A :class:`PauliString` represents ``sign * (X-part) * (Z-part)``: the
  Z factors act on a ket first, then the X factors.  On a basis state,

      P |m> = sign * (-1)**popcount(z_mask & m) |m ^ x_mask>.

* ``sign`` ranges over the four units {1, i, -1, -i}, stored exactly as the
  exponent of i modulo 4 (``phase``).

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError

PRUNE_TOL = 1e-14
NORM_TOL = 1e-12

_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)

# single-qubit factors of dense(), indexed by x_bit + 2 * z_bit; XZ is written
# out because a matmul at import time would initialise BLAS for every process
_DENSE_FACTORS = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, -1], [1, 0]], dtype=complex),
)


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of I/X/Z/XZ factors on ``n`` qubits."""

    n: int
    x_mask: int = 0
    z_mask: int = 0
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"qubit count must be positive, got {self.n}")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise DimensionError("mask uses bits beyond the qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def x_string(cls, n: int, mask: int) -> "PauliString":
        """X on every qubit whose bit is set in ``mask``."""
        return cls(n, x_mask=mask)

    @classmethod
    def z_string(cls, n: int, mask: int) -> "PauliString":
        """Z on every qubit whose bit is set in ``mask``."""
        return cls(n, z_mask=mask)

    @property
    def sign(self) -> complex:
        return _UNITS[self.phase]

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def dagger(self) -> "PauliString":
        # (i^k X Z)^dag = (-i)^k Z X = (-i)^k (-1)^|x&z| X Z
        k = (-self.phase + 2 * ((self.x_mask & self.z_mask).bit_count() & 1)) % 4
        return PauliString(self.n, self.x_mask, self.z_mask, k)

    def dense(self) -> np.ndarray:
        """2^n x 2^n matrix; qubit 1 is the least significant index bit.

        The Kronecker product sign * F_n (x) ... (x) F_1, built from qubit 1
        outwards as m <- F_q (x) m, with m the contiguous inner block.
        """
        m = np.array([[self.sign]])
        for q in range(self.n):
            f = _DENSE_FACTORS[((self.x_mask >> q) & 1) + 2 * ((self.z_mask >> q) & 1)]
            r = m.shape[0]
            m = (f[:, None, :, None] * m[None, :, None, :]).reshape(2 * r, 2 * r)
        return m

    def label(self) -> str:
        """Human-readable name, e.g. 'X1X2X3', 'Z2', '-X1Z1', 'I'."""
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[self.phase]
        parts = []
        for q in range(self.n):
            if (self.x_mask >> q) & 1:
                parts.append(f"X{q + 1}")
            if (self.z_mask >> q) & 1:
                parts.append(f"Z{q + 1}")
        return prefix + ("".join(parts) or "I")

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"PauliString({self.n}, {self.label()!r})"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product ``a * b`` with sign tracked through XZ commutation."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} != {b.n}")
    # moving b's X-part left through a's Z-part: Z X = -X Z per shared qubit
    flips = (a.z_mask & b.x_mask).bit_count() & 1
    phase = (a.phase + b.phase + 2 * flips) % 4
    return PauliString(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, phase)


def hadamard_conjugate(p: PauliString) -> PauliString:
    """Conjugate by H on every qubit: X <-> Z, with XZ -> ZX = -XZ."""
    flips = (p.x_mask & p.z_mask).bit_count() & 1
    return PauliString(p.n, p.z_mask, p.x_mask, (p.phase + 2 * flips) % 4)


def apply_to_basis(p: PauliString, index: int) -> tuple[int, complex]:
    """Image of ``|index>`` under ``p`` as ``(new_index, phase_factor)``."""
    if not 0 <= index < (1 << p.n):
        raise DimensionError(f"basis index {index} out of range for n={p.n}")
    parity = (p.z_mask & index).bit_count() & 1
    return index ^ p.x_mask, p.sign * (1 - 2 * parity)


class SparseState:
    """State vector on n qubits stored as {basis index: amplitude}.

    Amplitudes below ``PRUNE_TOL`` in magnitude are dropped at construction.
    Instances are treated as immutable.
    """

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes: dict[int, complex]):
        if n < 1:
            raise DimensionError(f"qubit count must be positive, got {n}")
        dim = 1 << n
        pruned: dict[int, complex] = {}
        for idx, amp in amplitudes.items():
            if not 0 <= idx < dim:
                raise DimensionError(f"basis index {idx} out of range for n={n}")
            if abs(amp) > PRUNE_TOL:
                pruned[idx] = complex(amp)
        self.n = n
        self.amplitudes = pruned

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> "SparseState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ContractViolationError("cannot normalize the zero state")
        return SparseState(self.n, {i: a / nrm for i, a in self.amplitudes.items()})

    def inner(self, other: "SparseState") -> complex:
        """<self|other>; conjugation applied to self."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        if len(self.amplitudes) <= len(other.amplitudes):
            return sum(
                a.conjugate() * other.amplitudes[i]
                for i, a in self.amplitudes.items()
                if i in other.amplitudes
            )
        return sum(
            self.amplitudes[i].conjugate() * a
            for i, a in other.amplitudes.items()
            if i in self.amplitudes
        )

    def isclose(self, other: "SparseState", tol: float = NORM_TOL) -> bool:
        if self.n != other.n:
            return False
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(
            abs(self.amplitudes.get(k, 0.0) - other.amplitudes.get(k, 0.0)) <= tol
            for k in keys
        )

    def dense(self) -> np.ndarray:
        v = np.zeros(1 << self.n, dtype=complex)
        for idx, amp in self.amplitudes.items():
            v[idx] = amp
        return v

    def __repr__(self) -> str:
        terms = ", ".join(f"{i}: {a:.3g}" for i, a in sorted(self.amplitudes.items()))
        return f"SparseState(n={self.n}, {{{terms}}})"


def basis_state(n: int, index: int) -> SparseState:
    return SparseState(n, {index: 1.0 + 0j})


def apply_to_state(p: PauliString, s: SparseState) -> SparseState:
    """Linear extension of :func:`apply_to_basis`; norm-preserving."""
    if p.n != s.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {s.n}")
    sign = p.sign
    out: dict[int, complex] = {}
    for idx, amp in s.amplitudes.items():
        parity = (p.z_mask & idx).bit_count() & 1
        out[idx ^ p.x_mask] = sign * (1 - 2 * parity) * amp
    return SparseState(s.n, out)


def matrix_element(bra: SparseState, p: PauliString, ket: SparseState) -> complex:
    """<bra| p |ket>, computed sparsely."""
    if not (bra.n == p.n == ket.n):
        raise DimensionError("qubit counts differ")
    sign = p.sign
    total = 0j
    for idx, amp in ket.amplitudes.items():
        target = bra.amplitudes.get(idx ^ p.x_mask)
        if target is not None:
            parity = (p.z_mask & idx).bit_count() & 1
            total += target.conjugate() * sign * (1 - 2 * parity) * amp
    return total

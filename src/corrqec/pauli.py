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
function, so they are safe to share across threads.  :class:`Frozen` is the
base of the value classes that enforce it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DimensionError

PRUNE_TOL = 1e-14
NORM_TOL = 1e-12

_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


@lru_cache(maxsize=None)
def _dense_factors():
    """Single-qubit factors of dense(), indexed by x_bit + 2 * z_bit.

    Built on the first dense() call, so that only dense work imports numpy;
    XZ is written out because a matmul would initialise BLAS.
    """
    import numpy as np
    return tuple(
        np.array(m, dtype=complex)
        for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1], [1, 0]])
    )


# bounded: a 3-qubit block has 4**3 masks x 4 phases, 256 blocks of 8 x 8
@lru_cache(maxsize=256)
def _dense_block(k: int, x_mask: int, z_mask: int, phase: int) -> np.ndarray:
    """Read-only i**phase * F_k (x) ... (x) F_1 on a block of k <= 3 qubits.

    Built from the block's first qubit outwards as m <- F_q (x) m, with m the
    contiguous inner block.
    """
    import numpy as np
    factors = _dense_factors()
    m = np.array([[_UNITS[phase]]])
    for q in range(k):
        f = factors[((x_mask >> q) & 1) + 2 * ((z_mask >> q) & 1)]
        r = m.shape[0]
        m = (f[:, None, :, None] * m[None, :, None, :]).reshape(2 * r, 2 * r)
    m.flags.writeable = False
    return m


class Frozen:
    """Base of the immutable value classes.

    A subclass stores its fields in ``__slots__``, sets each one once, in
    ``__init__``, through ``object.__setattr__``, and lists in ``_fields``
    the fields that make up its value: ``==``, the hash and the repr read
    those, in that order.  Assigning to or deleting a field raises
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # copy and pickle restore the slots through here, not __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class PauliString(Frozen):
    """A signed tensor product of I/X/Z/XZ factors on ``n`` qubits."""

    __slots__ = _fields = ("n", "x_mask", "z_mask", "phase")

    def __init__(self, n: int, x_mask: int = 0, z_mask: int = 0, phase: int = 0) -> None:
        if n < 1:
            raise DimensionError(f"qubit count must be positive, got {n}")
        full = (1 << n) - 1
        if x_mask & ~full or z_mask & ~full:
            raise DimensionError("mask uses bits beyond the qubit count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x_mask", x_mask)
        object.__setattr__(self, "z_mask", z_mask)
        object.__setattr__(self, "phase", phase % 4)

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
        outwards as m <- B (x) m, one step per cached block B of up to three
        qubits (``_dense_block``), with the sign folded into the first block.
        The result is a fresh, writeable array, never a cached block.
        """
        n, x, z = self.n, self.x_mask, self.z_mask
        m = _dense_block(min(n, 3), x & 7, z & 7, self.phase)
        if n <= 3:
            return m.copy()
        for q in range(3, n, 3):
            b = _dense_block(min(n - q, 3), (x >> q) & 7, (z >> q) & 7, 0)
            r = m.shape[0] * b.shape[0]
            m = (b[:, None, :, None] * m[None, :, None, :]).reshape(r, r)
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

    def dense(self) -> np.ndarray:
        import numpy as np
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
    """``p |s>``, each basis ket mapped as the module docstring gives; norm-preserving."""
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

"""Quantum codes as explicit codeword pairs, plus basis-substitution concatenation.

Codes in scope encode one logical qubit:

* ``bitflip3`` -- |0L> = |000>, |1L> = |111>
* ``dfs2``     -- |0L> = |+->, |1L> = |-+> (a noiseless pair for
                  perfectly correlated flips)
* ``concatenate(top, bottom)`` -- substitute bottom's codewords for the
  physical-qubit basis values in top's codewords.  Top-code qubit j
  occupies the contiguous block of bottom-code qubits
  [j*n_bottom, (j+1)*n_bottom), so with a 2-qubit top code and a 3-qubit
  bottom code the labels X1..X3 address the first top qubit's block.

The 6-qubit code used throughout is ``concatenate(dfs2(), bitflip3())``:

    |0L> = (|000000> - |000111> + |111000> - |111111>) / 2
    |1L> = (|000000> + |000111> - |111000> - |111111>) / 2

written with qubit 1 leftmost (least significant index bit).

These are bit-flavor codes.  A code's phase flavor is its
``hadamard_conjugate_code`` (|+++>, |---> for ``bitflip3``): H on every
qubit turns each X-string into the Z-string on the same qubits.
"""

from __future__ import annotations

import math

from .errors import CapacityError, ContractViolationError, ParameterError
from .pauli import NORM_TOL, Frozen, SparseState, basis_state

MAX_CODE_QUBITS = 20


class QuantumCode(Frozen):
    """One logical qubit in n physical qubits, given by its two codewords."""

    __slots__ = _fields = ("n", "logical_zero", "logical_one", "label")

    def __init__(
        self, n: int, logical_zero: SparseState, logical_one: SparseState, label: str
    ) -> None:
        if logical_zero.n != n or logical_one.n != n:
            raise ContractViolationError("codeword qubit count differs from code n")
        for name, state in (("|0L>", logical_zero), ("|1L>", logical_one)):
            if abs(state.norm() - 1.0) > NORM_TOL:
                raise ContractViolationError(f"{name} of {label!r} is not normalized")
        overlap = logical_zero.inner(logical_one)
        if abs(overlap) > NORM_TOL:
            raise ContractViolationError(
                f"codewords of {label!r} are not orthogonal: <0L|1L> = {overlap}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "logical_zero", logical_zero)
        object.__setattr__(self, "logical_one", logical_one)
        object.__setattr__(self, "label", label)


def pattern_state(pattern: str) -> SparseState:
    """Product state from a string over '0', '1', '+', '-'; qubit 1 first."""
    n = len(pattern)
    if n == 0:
        raise ParameterError("pattern must not be empty")
    amp = 1.0 / math.sqrt(2.0)
    partial: list[tuple[int, float]] = [(0, 1.0)]
    for q, ch in enumerate(pattern):
        if ch == "0":
            branches = [(0, 1.0)]
        elif ch == "1":
            branches = [(1, 1.0)]
        elif ch == "+":
            branches = [(0, amp), (1, amp)]
        elif ch == "-":
            branches = [(0, amp), (1, -amp)]
        else:
            raise ParameterError(f"pattern character {ch!r} not in '01+-'")
        partial = [
            (idx | (bit << q), a * b) for idx, a in partial for bit, b in branches
        ]
    return SparseState(n, {idx: a for idx, a in partial})


def bitflip3() -> QuantumCode:
    return QuantumCode(3, basis_state(3, 0b000), basis_state(3, 0b111), "bit3")


def dfs2() -> QuantumCode:
    return QuantumCode(2, pattern_state("+-"), pattern_state("-+"), "dfs2")


def concatenate(top: QuantumCode, bottom: QuantumCode, label: str | None = None) -> QuantumCode:
    """Replace each physical-qubit basis value of ``top`` by a ``bottom`` codeword."""
    n = top.n * bottom.n
    if n > MAX_CODE_QUBITS:
        raise CapacityError(f"concatenated code needs {n} qubits, limit is {MAX_CODE_QUBITS}")

    def substitute(state: SparseState) -> SparseState:
        blocks = (bottom.logical_zero, bottom.logical_one)
        out: dict[int, complex] = {}
        for m, amp in state.amplitudes.items():
            partial: list[tuple[int, complex]] = [(0, amp)]
            for j in range(top.n):
                block = blocks[(m >> j) & 1]
                partial = [
                    (idx | (bi << (j * bottom.n)), a * ba)
                    for idx, a in partial
                    for bi, ba in block.amplitudes.items()
                ]
            for idx, a in partial:
                out[idx] = out.get(idx, 0j) + a
        return SparseState(n, out)

    return QuantumCode(
        n,
        substitute(top.logical_zero),
        substitute(top.logical_one),
        label if label is not None else f"{top.label}*{bottom.label}",
    )


def hadamard_transform(state: SparseState) -> SparseState:
    """Apply H on every qubit: out[m] = 2^(-n/2) * sum_j (-1)^popcount(m&j) in[j]."""
    n = state.n
    scale = 2.0 ** (-n / 2.0)
    out: dict[int, complex] = {}
    for m in range(1 << n):
        acc = 0j
        for j, amp in state.amplitudes.items():
            acc += -amp if (m & j).bit_count() & 1 else amp
        out[m] = scale * acc
    return SparseState(n, out)


def hadamard_conjugate_code(code: QuantumCode) -> QuantumCode:
    """The code with both codewords rotated by H on every qubit."""
    return QuantumCode(
        code.n,
        hadamard_transform(code.logical_zero),
        hadamard_transform(code.logical_one),
        f"H[{code.label}]",
    )

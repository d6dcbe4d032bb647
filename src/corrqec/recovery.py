"""Detectable/correctable error sets and recovery-superoperator synthesis.

An error A is *detectable* for a code C when the projected operator
P_C A P_C is a scalar multiple of P_C, i.e.

    <0L|A|0L> = <1L|A|1L>  and  <0L|A|1L> = <1L|A|0L> = 0.

A set of channel operators is *correctable* when every pairwise product
A^dag A' is detectable (the Knill-Laflamme condition).  The maximal such
subset is selected greedily over candidates sorted by ascending weight,
then ascending x_mask and z_mask; this deterministic order reproduces the
canonical 32-operator set for the 6-qubit concatenated code.

Recovery synthesis groups correctable operators by the syndrome subspace
they map the code space onto.  Each group contributes one partial isometry

    R_l = |0L><v_l^0| + |1L><v_l^1|,   |v_l^i> = A_l |iL>

(the representative A_l is the group's first operator; no sign is stripped
from A_l|iL>, so a -1 eigenvalue stays in the syndrome state).  Operators
mapping onto the same subspace up to a scalar share one R_l -- the fully
degenerate situation of a decoherence-free pair.  When the syndrome
subspaces do not fill the Hilbert space, an orthonormal complement basis
is completed by Gram-Schmidt over computational basis vectors in ascending
index and attached as the projector R_perp.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .channels import NoiseChannel
from .codes import QuantumCode
from .errors import ContractViolationError, DimensionError, ParameterError
from .pauli import PauliString, SparseState, apply_to_state, matrix_element, multiply

DETECT_TOL = 1e-10


@dataclass(frozen=True)
class DetectabilityReport:
    op: PauliString
    detectable: bool
    lam: complex | None


@dataclass(frozen=True)
class RecoveryOp:
    """Partial isometry mapping span{v0, v1} back onto the code space."""

    v0: SparseState
    v1: SparseState
    members: tuple[PauliString, ...]


@dataclass(frozen=True)
class RecoverySet:
    """Recovery operators for ``code``, plus the complement basis, if any.

    ``restricted_traces`` memoizes, per channel Pauli keyed by
    ``(x_mask, z_mask, phase)``, the nonzero squared restricted traces
    ``|tr[R_l A]_C|^2`` (isometries first, then the complement projector);
    it is filled by the fidelity kernel and valid for ``code`` only.
    """

    code: QuantumCode
    ops: tuple[RecoveryOp, ...]
    complement: tuple[SparseState, ...]
    restricted_traces: dict[tuple[int, int, int], tuple[float, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def to_json_dict(self) -> dict:
        def dump(state: SparseState) -> list[dict]:
            return [
                {"index": i, "re": a.real, "im": a.imag}
                for i, a in sorted(state.amplitudes.items())
            ]

        return {
            "code": self.code.label,
            "n": self.code.n,
            "recovery_ops": [
                {
                    "members": [m.label() for m in op.members],
                    "v0": dump(op.v0),
                    "v1": dump(op.v1),
                }
                for op in self.ops
            ],
            "complement": [dump(r) for r in self.complement],
        }


def operators_to_json(ops: list[PauliString]) -> list[dict]:
    """Correctable/detectable sets as JSON rows, for golden-file regression."""
    sign_pairs = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
    return [
        {
            "label": op.label(),
            "weight": op.weight,
            "x_mask": op.x_mask,
            "z_mask": op.z_mask,
            "sign": list(sign_pairs[op.phase]),
        }
        for op in ops
    ]


def is_detectable(code: QuantumCode, op: PauliString, tol: float = DETECT_TOL) -> DetectabilityReport:
    if op.n != code.n:
        raise DimensionError(f"operator acts on {op.n} qubits, code has {code.n}")
    zero, one = code.logical_zero, code.logical_one
    m00 = matrix_element(zero, op, zero)
    m11 = matrix_element(one, op, one)
    m01 = matrix_element(zero, op, one)
    m10 = matrix_element(one, op, zero)
    ok = abs(m00 - m11) <= tol and abs(m01) <= tol and abs(m10) <= tol
    return DetectabilityReport(op, ok, m00 if ok else None)


def _sorted_candidates(channel: NoiseChannel) -> list[PauliString]:
    ops = channel.operators()
    if not ops:
        raise ParameterError("channel has no Kraus operators")
    return sorted(ops, key=lambda op: (op.weight, op.x_mask, op.z_mask, op.phase))


def detectable_set(code: QuantumCode, channel: NoiseChannel, tol: float = DETECT_TOL) -> list[PauliString]:
    return [op for op in _sorted_candidates(channel) if is_detectable(code, op, tol).detectable]


def non_detectable_set(code: QuantumCode, channel: NoiseChannel, tol: float = DETECT_TOL) -> list[PauliString]:
    return [op for op in _sorted_candidates(channel) if not is_detectable(code, op, tol).detectable]


def _greedy(code: QuantumCode, candidates: list[PauliString], tol: float) -> list[PauliString]:
    accepted: list[PauliString] = []
    for cand in candidates:
        if all(
            is_detectable(code, multiply(prev.dagger(), cand), tol).detectable
            for prev in accepted
        ) and is_detectable(code, cand, tol).detectable:
            accepted.append(cand)
    return accepted


def correctable_set(code: QuantumCode, channel: NoiseChannel, tol: float = DETECT_TOL) -> list[PauliString]:
    """Maximal-by-greedy subset with all pairwise products detectable.

    Zero-weight channel operators remain eligible, so the result depends on
    the channel's operator support, not on (p, mu).
    """
    return _greedy(code, _sorted_candidates(channel), tol)


def alternative_maximal_sets(
    code: QuantumCode,
    channel: NoiseChannel,
    tries: int = 8,
    tol: float = DETECT_TOL,
) -> list[tuple[PauliString, ...]]:
    """Diagnostic: same-size correctable sets reachable under candidate reordering.

    Reruns the greedy selection with the within-weight-class order reversed,
    with seeded shuffles inside each weight class, and with fully shuffled
    candidate lists (which can swap representatives across weight classes).
    Returns the distinct sets (excluding the canonical one) of equal size;
    the canonical set is never replaced.
    """
    canonical = tuple(correctable_set(code, channel, tol))
    candidates = _sorted_candidates(channel)
    by_weight: dict[int, list[PauliString]] = {}
    for op in candidates:
        by_weight.setdefault(op.weight, []).append(op)

    def order(shuffler) -> list[PauliString]:
        out: list[PauliString] = []
        for w in sorted(by_weight):
            block = list(by_weight[w])
            shuffler(block)
            out.extend(block)
        return out

    orderings = [order(lambda block: block.reverse())]
    rng = random.Random(0)
    for _ in range(tries):
        orderings.append(order(rng.shuffle))
    for _ in range(tries):
        full = list(candidates)
        rng.shuffle(full)
        orderings.append(full)

    canonical_key = frozenset((op.x_mask, op.z_mask, op.phase) for op in canonical)
    found: dict[frozenset, tuple[PauliString, ...]] = {}
    for candidates in orderings:
        result = tuple(_greedy(code, candidates, tol))
        if len(result) != len(canonical):
            continue
        key = frozenset((op.x_mask, op.z_mask, op.phase) for op in result)
        if key != canonical_key:
            found.setdefault(key, result)
    return list(found.values())


def build_recovery(
    code: QuantumCode,
    correctable: list[PauliString],
    tol: float = DETECT_TOL,
) -> RecoverySet:
    """Synthesize the recovery set for a correctable operator list."""
    if not correctable:
        raise ParameterError("correctable operator list is empty")
    groups: list[tuple[SparseState, SparseState, list[PauliString]]] = []
    for op in correctable:
        y0 = apply_to_state(op, code.logical_zero)
        y1 = apply_to_state(op, code.logical_one)
        placed = False
        for v0, v1, members in groups:
            c00, c10 = v0.inner(y0), v1.inner(y0)
            c01, c11 = v0.inner(y1), v1.inner(y1)
            if max(abs(c00), abs(c10), abs(c01), abs(c11)) <= tol:
                continue  # orthogonal to this syndrome subspace
            same = abs(abs(c00) - 1.0) <= tol and abs(c10) <= tol and abs(c01) <= tol
            if not same or abs(c11 - c00) > tol:
                raise ContractViolationError(
                    f"syndrome spaces of {op.label()} and {members[0].label()} "
                    "overlap without coinciding"
                )
            members.append(op)
            placed = True
            break
        if not placed:
            if abs(y0.inner(y1)) > tol:
                raise ContractViolationError(
                    f"images of the codewords under {op.label()} are not orthogonal"
                )
            groups.append((y0, y1, [op]))

    ops = tuple(RecoveryOp(v0, v1, tuple(members)) for v0, v1, members in groups)
    complement = _complement_basis(code.n, ops, tol)
    return RecoverySet(code, ops, tuple(complement))


def _complement_basis(
    n: int, ops: tuple[RecoveryOp, ...], tol: float
) -> list[SparseState]:
    """Gram-Schmidt completion of the syndrome spaces, seeded by basis kets."""
    dim = 1 << n
    missing = dim - 2 * len(ops)
    if missing == 0:
        return []
    span = np.zeros((2 * len(ops), dim), dtype=complex)
    for i, op in enumerate(ops):
        span[2 * i] = op.v0.dense()
        span[2 * i + 1] = op.v1.dense()
    basis: list[np.ndarray] = []
    for seed in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[seed] = 1.0
        v -= (span.conj() @ v) @ span
        for b in basis:
            v -= (b.conj() @ v) * b
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == missing:
            break
    if len(basis) != missing:
        raise ContractViolationError("complement basis construction fell short")
    return [
        SparseState(n, {i: complex(a) for i, a in enumerate(v) if abs(a) > 1e-14})
        for v in basis
    ]


def recovery_dense(rs: RecoverySet) -> Iterator[np.ndarray]:
    """The recovery operators (then the complement projector) as dense matrices.

    Yields one matrix at a time, so a caller that consumes each one holds a
    single matrix rather than all of them.
    """
    d0 = rs.code.logical_zero.dense()
    d1 = rs.code.logical_one.dense()
    for op in rs.ops:
        yield np.outer(d0, op.v0.dense().conj()) + np.outer(d1, op.v1.dense().conj())
    if rs.complement:
        yield sum(np.outer(r.dense(), r.dense().conj()) for r in rs.complement)


def trace_preservation_deviation(rs: RecoverySet) -> float:
    """max |sum_l R_l^dag R_l (+ R_perp^dag R_perp) - I| assembled densely."""
    dim = 1 << rs.code.n
    total = np.zeros((dim, dim), dtype=complex)
    for mat in recovery_dense(rs):
        total += mat.conj().T @ mat
    return float(np.abs(total - np.eye(dim)).max())


def verify_trace_preserving(rs: RecoverySet, tol: float = DETECT_TOL) -> bool:
    return trace_preservation_deviation(rs) <= tol

"""Detectable/correctable error sets and recovery-superoperator synthesis.

An error A is *detectable* for a code C when the projected operator
P_C A P_C is a scalar multiple of P_C, i.e.

    <0L|A|0L> = <1L|A|1L>  and  <0L|A|1L> = <1L|A|0L> = 0.

A set of Paulis is *correctable* when every pairwise product A^dag A' is
detectable (the Knill-Laflamme condition).  One partition of an operator
support decides which sets are: each Pauli maps the code space onto a
*syndrome* subspace, and within a syndrome the Paulis that act alike up
to a scalar form a *cell*.  A set is correctable exactly when it takes at
most one cell per syndrome.  The candidates are the support's distinct
Paulis by ascending weight, then ascending x_mask and z_mask, after the
identity, which seeds the partition so that the code space keeps the
identity's cell; the correctable set is the first cell of each syndrome.
This reproduces the canonical 32-operator set for the 6-qubit
concatenated code.

Recovery synthesis partitions a correctable list the same way; each
syndrome contributes one partial isometry

    R_l = |0L><v_l^0| + |1L><v_l^1|,   |v_l^i> = A_l |iL>

(the representative A_l is the syndrome's first operator; no sign is
stripped from A_l|iL>, so a -1 eigenvalue stays in the syndrome state).
Operators of one cell share one R_l -- the fully degenerate situation of
a decoherence-free pair.  When the syndrome subspaces do not fill the
Hilbert space, an orthonormal complement basis is completed by
Gram-Schmidt over computational basis vectors in ascending index and
attached as the projector R_perp.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator

from .codes import QuantumCode
from .errors import ContractViolationError, DimensionError, ParameterError
from .pauli import Frozen, PauliString, SparseState, apply_to_state, matrix_element

DETECT_TOL = 1e-10


class RecoveryOp(namedtuple("RecoveryOp", "v0 v1 members")):
    """Partial isometry mapping span{v0, v1} back onto the code space.

    ``members`` is the tuple of correctable Paulis it undoes.
    """

    __slots__ = ()


class RecoverySet(Frozen):
    """Recovery operators for ``code``, plus the complement basis, if any.

    Every complement vector must be orthogonal to both codewords (within
    ``DETECT_TOL``), so that the complement projector has a zero restricted
    trace for every operator; construction raises otherwise.  Sets compare
    by identity: each one carries its own caches.

    ``restricted_traces`` memoizes, per channel Pauli keyed by
    ``(x_mask, z_mask, phase)``, the nonzero squared restricted traces
    ``|tr[R_l A]_C|^2`` of the isometries, in order.  ``term_tables``
    holds, per builder's cached Pauli tuple (``NoiseChannel.shared``) keyed
    by its ``id`` and kept alive with it, the ``(term index, square)``
    pairs of those squares in term order.  The fidelity kernel fills both,
    and both are valid for ``code`` only.
    ``projected_rows`` holds the dense oracle's read-only rows
    ``(P R_l)^T`` flattened, one per recovery matrix, with ``P`` the code
    projector; the oracle sets it on its first call for this set.
    ``dense_squares`` memoizes, per channel Pauli keyed by the
    ``PauliString`` itself, the oracle's ``sum_l |tr[P R_l A]|^2`` over
    every recovery matrix, complement included.  Only the oracle fills it,
    and it never reads the kernel's caches.
    """

    __slots__ = (
        "code", "ops", "complement", "restricted_traces", "term_tables", "projected_rows",
        "dense_squares",
    )
    _fields = ("code", "ops", "complement")
    # by identity: the repr alone reads _fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    restricted_traces: dict[tuple[int, int, int], tuple[float, ...]]
    term_tables: dict[int, tuple[tuple[PauliString, ...], tuple[tuple[int, float], ...]]]
    projected_rows: np.ndarray | None
    dense_squares: dict[PauliString, float]

    def __init__(
        self, code: QuantumCode, ops: tuple[RecoveryOp, ...], complement: tuple[SparseState, ...]
    ) -> None:
        codewords = (code.logical_zero, code.logical_one)
        if any(abs(c.inner(r)) > DETECT_TOL for r in complement for c in codewords):
            raise ContractViolationError("complement basis overlaps the code space")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "complement", complement)
        object.__setattr__(self, "restricted_traces", {})
        object.__setattr__(self, "term_tables", {})
        object.__setattr__(self, "projected_rows", None)
        object.__setattr__(self, "dense_squares", {})


def is_detectable(code: QuantumCode, op: PauliString) -> bool:
    if op.n != code.n:
        raise DimensionError(f"operator acts on {op.n} qubits, code has {code.n}")
    zero, one = code.logical_zero, code.logical_one
    m00 = matrix_element(zero, op, zero)
    m11 = matrix_element(one, op, one)
    m01 = matrix_element(zero, op, one)
    m10 = matrix_element(one, op, zero)
    return abs(m00 - m11) <= DETECT_TOL and abs(m01) <= DETECT_TOL and abs(m10) <= DETECT_TOL


def _sorted_candidates(paulis: Iterable[PauliString]) -> list[PauliString]:
    """The distinct Paulis by (x_mask, z_mask, phase), in selection order."""
    ops = list({(op.x_mask, op.z_mask, op.phase): op for op in paulis}.values())
    if not ops:
        raise ParameterError("operator support is empty")
    return sorted(ops, key=lambda op: (op.weight, op.x_mask, op.z_mask, op.phase))


def non_detectable_set(code: QuantumCode, paulis: Iterable[PauliString]) -> list[PauliString]:
    return [op for op in _sorted_candidates(paulis) if not is_detectable(code, op)]


def _partition(code: QuantumCode, ops: list[PauliString]) -> list[tuple[int, int]]:
    """Label each of ``ops`` with its (syndrome, cell) pair, numbered by first appearance.

    Two Paulis a, b share a syndrome when a^dag b restricted to the code space
    is unitary, and a cell when that restriction is a unit scalar; it is zero
    for different syndromes.  Each kind is memoized by the product's
    ``(x_mask, z_mask)``, since a global phase cannot change it.
    """
    zero, one = code.logical_zero, code.logical_one
    kinds: dict[tuple[int, int], str] = {}

    def kind(a: PauliString, b: PauliString) -> str:
        """'zero', 'scalar' or 'unitary': the restricted a^dag b, up to a phase."""
        key = (a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)
        if key not in kinds:
            p = PauliString(code.n, *key)
            m00, m01 = matrix_element(zero, p, zero), matrix_element(zero, p, one)
            m10, m11 = matrix_element(one, p, zero), matrix_element(one, p, one)
            if max(abs(m00), abs(m01), abs(m10), abs(m11)) <= DETECT_TOL:
                kinds[key] = "zero"
            elif max(  # rows not orthonormal: no unitary
                abs(abs(m00) ** 2 + abs(m01) ** 2 - 1.0),
                abs(abs(m10) ** 2 + abs(m11) ** 2 - 1.0),
                abs(m00 * m10.conjugate() + m01 * m11.conjugate()),
            ) > DETECT_TOL:
                raise ContractViolationError(
                    f"syndrome spaces of {b.label()} and {a.label()} overlap without coinciding"
                )
            elif abs(m01) <= DETECT_TOL and abs(m10) <= DETECT_TOL and abs(m00 - m11) <= DETECT_TOL:
                kinds[key] = "scalar"
            else:
                kinds[key] = "unitary"
        return kinds[key]

    reps: list[list[PauliString]] = []  # per syndrome, the first Pauli of each cell
    labels: list[tuple[int, int]] = []
    for op in ops:
        for s, cells in enumerate(reps):
            if kind(cells[0], op) != "zero":
                c = next((c for c, rep in enumerate(cells) if kind(rep, op) == "scalar"), None)
                if c is None:
                    c = len(cells)
                    cells.append(op)
                break
        else:
            s, c = len(reps), 0
            reps.append([op])
        labels.append((s, c))
    return labels


def correctable_set(code: QuantumCode, paulis: Iterable[PauliString]) -> list[PauliString]:
    """The Paulis of the first cell of each syndrome, in candidate order.

    ``paulis`` is an operator support, such as a channel's ``paulis``: no
    weight plays a part, and a repeated Pauli counts once.  The identity
    seeds the partition, so on the code space the kept cell is the
    identity's, which holds exactly the candidates detectable on their own.
    """
    candidates = _sorted_candidates(paulis)
    labels = _partition(code, [PauliString.identity(code.n)] + candidates)
    return [op for op, (_, c) in zip(candidates, labels[1:]) if c == 0]


def count_correctable_sets(code: QuantumCode, paulis: Iterable[PauliString]) -> int:
    """How many maximal correctable subsets of ``paulis`` contain the identity.

    Each takes one whole cell per syndrome, and the identity's cell on the
    code space, so the count is the product of the other syndromes' cell
    counts.  ``correctable_set`` is one of them.
    """
    labels = set(_partition(code, [PauliString.identity(code.n)] + _sorted_candidates(paulis)))
    cells = Counter(s for s, _ in labels)
    return math.prod(count for s, count in cells.items() if s)


def build_recovery(code: QuantumCode, correctable: list[PauliString]) -> RecoverySet:
    """Synthesize the recovery set for a correctable operator list."""
    if not correctable:
        raise ParameterError("correctable operator list is empty")
    groups: dict[int, list[PauliString]] = {}
    for op, (s, c) in zip(correctable, _partition(code, correctable)):
        if c:
            raise ContractViolationError(
                f"{op.label()} and {groups[s][0].label()} share a syndrome but act differently"
            )
        groups.setdefault(s, []).append(op)
    ops = tuple(
        RecoveryOp(
            apply_to_state(members[0], code.logical_zero),
            apply_to_state(members[0], code.logical_one),
            tuple(members),
        )
        for members in groups.values()
    )
    complement = _complement_basis(code.n, ops)
    return RecoverySet(code, ops, tuple(complement))


def _complement_basis(n: int, ops: tuple[RecoveryOp, ...]) -> list[SparseState]:
    """Gram-Schmidt completion of the syndrome spaces, seeded by basis kets.

    Sparse: the seed |k> loses conj(u[k]) u for each syndrome vector u, then
    its projection onto each complement vector found so far, one at a time.
    """
    dim = 1 << n
    missing = dim - 2 * len(ops)
    if missing == 0:
        return []
    span = [s.amplitudes for op in ops for s in (op.v0, op.v1)]
    basis: list[dict[int, complex]] = []
    for seed in range(dim):
        v = {seed: 1.0 + 0j}
        for u in span:
            _subtract(v, u.get(seed, 0j).conjugate(), u)
        for b in basis:
            _subtract(v, sum(a.conjugate() * v[k] for k, a in b.items() if k in v), b)
        # squared real parts, then imaginary parts, as numpy.linalg.norm sums them
        values = v.values()
        nrm = math.sqrt(sum(a.real * a.real for a in values) + sum(a.imag * a.imag for a in values))
        if nrm > 1e-8:
            basis.append({k: a / nrm for k, a in v.items()})
        if len(basis) == missing:
            break
    if len(basis) != missing:
        raise ContractViolationError("complement basis construction fell short")
    return [SparseState(n, b) for b in basis]


def _subtract(v: dict[int, complex], c: complex, u: dict[int, complex]) -> None:
    """v -= c * u, in place; a zero c adds no keys, so v stays sparse."""
    if c:
        for k, a in u.items():
            v[k] = v.get(k, 0j) - c * a


def recovery_dense(rs: RecoverySet) -> Iterator[np.ndarray]:
    """The recovery operators (then the complement projector) as dense matrices.

    Yields one matrix at a time, so a caller that consumes each one holds a
    single matrix rather than all of them.
    """
    import numpy as np
    d0 = rs.code.logical_zero.dense()
    d1 = rs.code.logical_one.dense()
    for op in rs.ops:
        yield np.outer(d0, op.v0.dense().conj()) + np.outer(d1, op.v1.dense().conj())
    if rs.complement:
        vectors = [r.dense() for r in rs.complement]
        yield sum(np.outer(v, v.conj()) for v in vectors)


def trace_preservation_deviation(rs: RecoverySet) -> float:
    """max |sum_l R_l^dag R_l (+ R_perp^dag R_perp) - I| assembled densely."""
    import numpy as np
    dim = 1 << rs.code.n
    total = np.zeros((dim, dim), dtype=complex)
    for mat in recovery_dense(rs):
        total += mat.conj().T @ mat
    return float(np.abs(total - np.eye(dim)).max())

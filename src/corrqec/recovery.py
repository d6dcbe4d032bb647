"""Detectable/correctable error sets and recovery-superoperator synthesis.

An error A is *detectable* for a code C when the projected operator
P_C A P_C is a scalar multiple of P_C, i.e.

    <0L|A|0L> = <1L|A|1L>  and  <0L|A|1L> = <1L|A|0L> = 0.

A set of Paulis is *correctable* when every pairwise product A^dag A' is
detectable (the Knill-Laflamme condition).  The maximal such subset of an
operator support's distinct Paulis is selected greedily, ascending weight,
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

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .codes import QuantumCode
from .errors import ContractViolationError, DimensionError, ParameterError
from .pauli import Frozen, PauliString, SparseState, apply_to_state, matrix_element, multiply

DETECT_TOL = 1e-10
# seeded reorderings of each kind tried by alternative_maximal_sets
ALTERNATIVE_TRIES = 8


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
    """

    __slots__ = (
        "code", "ops", "complement", "restricted_traces", "term_tables", "projected_rows"
    )
    _fields = ("code", "ops", "complement")
    # by identity: the repr alone reads _fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    restricted_traces: dict[tuple[int, int, int], tuple[float, ...]]
    term_tables: dict[int, tuple[tuple[PauliString, ...], tuple[tuple[int, float], ...]]]
    projected_rows: np.ndarray | None

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


def _greedy(
    code: QuantumCode,
    candidates: list[PauliString],
    known: dict[tuple[int, int], bool] | None = None,
) -> list[PauliString]:
    """Accept each candidate whose products with those accepted are detectable.

    ``known`` memoizes detectability by the product's ``(x_mask, z_mask)``,
    since a global phase cannot change it; runs on the same code may share it.
    """
    if known is None:
        known = {}

    def detectable(a: PauliString, b: PauliString) -> bool:
        """Is a^dag b detectable?  Forms the product only on a memo miss."""
        key = (a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)
        if key not in known:
            known[key] = is_detectable(code, multiply(a.dagger(), b))
        return known[key]

    identity = PauliString.identity(code.n)
    accepted: list[PauliString] = []
    for cand in candidates:
        if all(detectable(prev, cand) for prev in accepted) and detectable(identity, cand):
            accepted.append(cand)
    return accepted


def correctable_set(code: QuantumCode, paulis: Iterable[PauliString]) -> list[PauliString]:
    """Maximal-by-greedy subset of ``paulis`` with all pairwise products detectable.

    ``paulis`` is an operator support, such as a channel's ``paulis``: no
    weight plays a part, and a repeated Pauli counts once.
    """
    return _greedy(code, _sorted_candidates(paulis))


def alternative_maximal_sets(
    code: QuantumCode, paulis: Iterable[PauliString]
) -> list[tuple[PauliString, ...]]:
    """Diagnostic: same-size correctable sets reachable under candidate reordering.

    Reruns the greedy selection with the within-weight-class order reversed,
    with seeded shuffles inside each weight class, and with fully shuffled
    candidate lists (which can swap representatives across weight classes).
    Returns the distinct sets (excluding the canonical one) of equal size;
    the canonical set is never replaced.  All runs share one detectability
    memo, so each distinct product is checked once.
    """
    import random  # imported here: only this diagnostic shuffles
    candidates = _sorted_candidates(paulis)
    known: dict[tuple[int, int], bool] = {}
    canonical = tuple(_greedy(code, candidates, known))
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
    for _ in range(ALTERNATIVE_TRIES):
        orderings.append(order(rng.shuffle))
    for _ in range(ALTERNATIVE_TRIES):
        full = list(candidates)
        rng.shuffle(full)
        orderings.append(full)

    canonical_key = frozenset((op.x_mask, op.z_mask, op.phase) for op in canonical)
    found: dict[frozenset, tuple[PauliString, ...]] = {}
    for candidates in orderings:
        result = tuple(_greedy(code, candidates, known))
        if len(result) != len(canonical):
            continue
        key = frozenset((op.x_mask, op.z_mask, op.phase) for op in result)
        if key != canonical_key:
            found.setdefault(key, result)
    return list(found.values())


def build_recovery(code: QuantumCode, correctable: list[PauliString]) -> RecoverySet:
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
            if max(abs(c00), abs(c10), abs(c01), abs(c11)) <= DETECT_TOL:
                continue  # orthogonal to this syndrome subspace
            same = (
                abs(abs(c00) - 1.0) <= DETECT_TOL
                and abs(c10) <= DETECT_TOL
                and abs(c01) <= DETECT_TOL
            )
            if not same or abs(c11 - c00) > DETECT_TOL:
                raise ContractViolationError(
                    f"syndrome spaces of {op.label()} and {members[0].label()} "
                    "overlap without coinciding"
                )
            members.append(op)
            placed = True
            break
        if not placed:
            if abs(y0.inner(y1)) > DETECT_TOL:
                raise ContractViolationError(
                    f"images of the codewords under {op.label()} are not orthogonal"
                )
            groups.append((y0, y1, [op]))

    ops = tuple(RecoveryOp(v0, v1, tuple(members)) for v0, v1, members in groups)
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

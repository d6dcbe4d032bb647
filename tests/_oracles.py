"""Independent oracles used across the test suite.

The dense ones are deliberately built from scratch with numpy kron products
rather than the library's own dense conversions, so mask/phase bookkeeping
is checked against plain matrix arithmetic.  ``per_point_fidelity`` is the
corrected-fidelity loop that recomputes every restricted trace at every
point; the memoized kernel must reproduce it bit for bit.
``model1_weights`` and ``model2_weights`` compute each channel weight
mask by mask; `build_channel` must reproduce them bit for bit.
``per_row_dense_fidelity`` takes one dense dot product per (term, recovery
operator) pair; the library's dense oracle must agree with it to rounding.
``per_call_dense_oracle_fidelity`` is the former dense oracle, which stacked
the rows P R_l again at every call; the one that keeps them on the recovery
set must equal it.
``scan_threshold_mu`` is the former threshold solver: a 1024-point scan of
the failure probability (closed form, else the numeric pipeline) minus p,
refined by float bisection; the exact solver must agree with it to the
scan's accuracy.
``bisected_sign_structure`` is the former root rounding: every root of the
square-free part bisected by exact sign until it rounds to one double, and
each gap's sign taken at a point the Sturm sequence places left of its
root; the solver's checked float guesses must reproduce it.
``dense_complement_basis`` is the former complement completion: a dense
numpy Gram-Schmidt over basis kets; the sparse one must reproduce it.
``indexed_chain_weights`` is the former model I weight builder, one step
factor looked up per element; the four-comprehension one must equal it.
``dict_fidelity_json`` is the former JSON renderer, one dict per row through
``json.dumps(indent=2)``; the template renderer must reproduce its bytes.
``isclose`` and ``normalized`` compare and scale sparse states amplitude by
amplitude; ``hadamard_conjugate`` and ``phase_flavor`` map a Pauli and a
channel through H on every qubit, so the phase flavor the builder makes
directly can be checked against the conjugated bit flavor.
``pattern_code`` writes a code down from its two product-state patterns,
so the phase-flavor codes, which the library derives by rotating the
bit-flavor ones, have references that take no rotation.
``greedy_correctable_set`` is the former correctable-set selection, a
greedy pairwise Knill-Laflamme search; the syndrome/cell partition must
select the same set.  ``maximum_cliques`` enumerates, from dense images,
every maximum clique of the pairwise-detectability graph; the partition's
count of correctable sets must match it.
"""

import json
import math

import numpy as np

from corrqec import roots
from corrqec.errors import ContractViolationError
from corrqec.fidelity import ThresholdPoint, closed_form, evaluate
from corrqec.channels import NoiseChannel
from corrqec.codes import QuantumCode, pattern_state
from corrqec.pauli import PauliString, SparseState, apply_to_state, multiply
from corrqec.recovery import is_detectable, recovery_dense
from corrqec.sweep import fmt_float

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

UNIT = {0: 1, 1: 1j, 2: -1, 3: -1j}

# largest |restricted trace| of the complement projector per_point_fidelity accepts
COMPLEMENT_TRACE_TOL = 1e-10


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


def per_point_fidelity(channel, rs):
    """(1/4) sum_{k,l} w_k |tr[R_l A_k]_C|^2, every trace recomputed per term."""
    zero, one = rs.code.logical_zero, rs.code.logical_one
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


def indexed_chain_weights(n, p, mu):
    """Model I weights by mask, built prefix by prefix with step[cur][prev] per element."""
    q, keep = 1.0 - p, 1.0 - mu
    step = ((keep * q + mu, keep * q), (keep * p, keep * p + mu))
    weights = [q, p]
    for _ in range(1, n):
        half = len(weights) // 2
        weights = [w * step[cur][m >= half] for cur in (0, 1) for m, w in enumerate(weights)]
    return weights


def dict_fidelity_json(results):
    """Fidelity rows as dicts of 12-digit floats, through the indenting json encoder."""

    def number(x):
        return None if x is None else float(fmt_float(x))

    rows = []
    for r in results:
        diff = None if r.f_closed_form is None else abs(r.f_numeric - r.f_closed_form)
        rows.append(
            {
                "model": r.model,
                "scheme": r.scheme,
                "mu": number(r.mu),
                "p": number(r.p),
                "fidelity_numeric": number(r.f_numeric),
                "fidelity_closed_form": number(r.f_closed_form),
                "abs_diff": number(diff),
                "failure_prob": number(r.failure_prob),
            }
        )
    return json.dumps(rows, indent=2) + "\n"


def per_row_dense_fidelity(channel, rs):
    """(1/4) sum_{k,l} |tr[P R_l sqrt(w_k) A_k]|^2, one dot product per (k, l)."""
    code = rs.code
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


def per_call_dense_oracle_fidelity(channel, rs):
    """The dense oracle with its rows (P R_l)^T stacked anew at every call."""
    code = rs.code
    d0 = code.logical_zero.dense()
    d1 = code.logical_one.dense()
    proj = np.outer(d0, d0.conj()) + np.outer(d1, d1.conj())
    dim = 1 << code.n
    projected = np.empty((len(rs.ops) + bool(rs.complement), dim * dim), dtype=complex)
    for row, rmat in zip(projected, recovery_dense(rs)):
        row[:] = (proj @ rmat).T.ravel()
    total = 0.0
    for w, op in channel.terms:
        t = projected @ op.dense().ravel()
        total += w * np.vdot(t, t).real
    return float(total / 4.0)


SCAN_GRID_POINTS = 1024
SCAN_ZERO_TOL = 1e-12


def scan_threshold_mu(scheme, model, p):
    """Sign of failure_prob(mu) - p on a uniform grid, each change bisected."""

    def excess(mu):
        cf = closed_form(scheme, model, mu, p)
        failure = 1.0 - cf if cf is not None else evaluate(scheme, model, mu, p).failure_prob
        return failure - p

    grid = np.linspace(0.0, 1.0, SCAN_GRID_POINTS)
    values = [excess(float(mu)) for mu in grid]

    def status(v):
        if v < -SCAN_ZERO_TOL:
            return -1
        if v > SCAN_ZERO_TOL:
            return 1
        return 0

    def bisect(lo, hi, flo):
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
    last = SCAN_GRID_POINTS - 1
    regions = []
    crossings = []
    i = 0
    while i <= last:
        if statuses[i] > 0:
            i += 1
            continue
        j = i
        while j < last and statuses[j + 1] <= 0:
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
            if j == last:
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
        branch=_scan_branch(regions),
        regions=tuple(regions),
    )


def _scan_branch(regions):
    edge = SCAN_ZERO_TOL
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


def bisected_sign_structure(g):
    """``roots.sign_structure`` with every root rounded by exact bisection."""
    seq = roots._sturm(roots._primitive(g))
    if len(seq[-1]) > 1:
        seq = roots._sturm(roots._primitive(roots._divide_exact(seq[0], seq[-1])))
    h = seq[0]
    intervals = roots._isolate(seq)
    signs = [roots._sign_at(g, *roots._left_of_root(seq, a, k)) for a, k in intervals]
    edges = [0.0] + [_bisected_root(h, a, k) for a, k in intervals]
    if roots._sign_at(h, 1, 0) != 0:
        signs.append(roots._sign_at(g, 1, 0))
        edges.append(1.0)
    return edges, signs


def _bisected_root(h, a, k):
    """The double nearest the root of square-free h in (a / 2^k, (a + 1) / 2^k]."""
    side = roots._sign_at(h, a + 1, k)
    if side == 0:
        return (a + 1) / (1 << k)
    while a / (1 << k) != (a + 1) / (1 << k):
        a, k = 2 * a, k + 1
        s = roots._sign_at(h, a + 1, k)
        if s == 0:
            return (a + 1) / (1 << k)
        if s != side:
            a += 1
    return a / (1 << k)


def dense_complement_basis(n, ops):
    """Gram-Schmidt completion of the syndrome spaces, seeded by basis kets."""
    dim = 1 << n
    missing = dim - 2 * len(ops)
    if missing == 0:
        return []
    span = np.zeros((2 * len(ops), dim), dtype=complex)
    for i, op in enumerate(ops):
        span[2 * i] = dense_state(op.v0)
        span[2 * i + 1] = dense_state(op.v1)
    basis = []
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


def isclose(a, b, tol=1e-12):
    """Same qubit count, and every amplitude within ``tol``."""
    if a.n != b.n:
        return False
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(abs(a.amplitudes.get(k, 0.0) - b.amplitudes.get(k, 0.0)) <= tol for k in keys)


def normalized(state):
    """``state`` scaled to norm 1; the zero state has no direction."""
    nrm = state.norm()
    if nrm == 0.0:
        raise ContractViolationError("cannot normalize the zero state")
    return SparseState(state.n, {i: a / nrm for i, a in state.amplitudes.items()})


def hadamard_conjugate(p):
    """Conjugate by H on every qubit: X <-> Z, with XZ -> ZX = -XZ."""
    flips = (p.x_mask & p.z_mask).bit_count() & 1
    return PauliString(p.n, p.z_mask, p.x_mask, (p.phase + 2 * flips) % 4)


def phase_flavor(channel):
    """Hadamard-conjugate every Kraus operator; weights unchanged."""
    paulis = tuple(hadamard_conjugate(op) for op in channel.paulis)
    return NoiseChannel(channel.n, paulis, channel.weights)


def pattern_code(zero, one):
    """The code with codewords ``pattern_state(zero)`` and ``pattern_state(one)``."""
    return QuantumCode(len(zero), pattern_state(zero), pattern_state(one), f"{zero}/{one}")


def greedy_correctable_set(code, paulis):
    """The former correctable-set selection, with no memo: every product is checked anew.

    The distinct Paulis by (weight, x_mask, z_mask, phase) are accepted one
    by one when detectable on their own and in their product with each one
    accepted before.
    """
    distinct = {(op.x_mask, op.z_mask, op.phase): op for op in paulis}.values()
    accepted = []
    for cand in sorted(distinct, key=lambda op: (op.weight, op.x_mask, op.z_mask, op.phase)):
        if all(
            is_detectable(code, multiply(prev.dagger(), cand)) for prev in accepted
        ) and is_detectable(code, cand):
            accepted.append(cand)
    return accepted


def maximum_cliques(code, strings, tol=1e-10):
    """The maximum cliques of the detectability graph on ``strings``, as index bitmasks.

    Two strings are joined when the dense 2x2 overlap matrix of their
    codeword images is a multiple of the identity (a^dag b is detectable).
    Bron-Kerbosch with a pivot lists every maximal clique; the largest are
    returned, bit i standing for ``strings[i]``.
    """
    zero, one = dense_state(code.logical_zero), dense_state(code.logical_one)
    images = [
        dense_pauli(code.n, p.x_mask, p.z_mask, p.phase) @ np.stack([zero, one], axis=1)
        for p in strings
    ]
    neighbours = [0] * len(strings)
    for i, a in enumerate(images):
        for j in range(i):
            g = a.conj().T @ images[j]
            if abs(g[0, 1]) <= tol and abs(g[1, 0]) <= tol and abs(g[0, 0] - g[1, 1]) <= tol:
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i

    def members(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    cliques = []

    def expand(clique, allowed, excluded):
        if not allowed and not excluded:
            cliques.append(clique)
            return
        # a pivot with the most allowed neighbours: only its non-neighbours branch
        pivot = max(
            members(allowed | excluded), key=lambda u: (allowed & neighbours[u]).bit_count()
        )
        for v in members(allowed & ~neighbours[pivot]):
            expand(clique | 1 << v, allowed & neighbours[v], excluded & neighbours[v])
            allowed &= ~(1 << v)
            excluded |= 1 << v

    expand(0, (1 << len(strings)) - 1, 0)
    size = max(c.bit_count() for c in cliques)
    return [c for c in cliques if c.bit_count() == size]

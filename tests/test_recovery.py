import itertools
import random
from collections import Counter

import numpy as np
import pytest

from corrqec import channels, recovery, schemes
from corrqec.channels import MODEL_I, MODEL_II, ChannelParams, build_channel
from corrqec.codes import QuantumCode, bitflip3, concatenate, dfs2, pattern_state
from corrqec.errors import ContractViolationError, ParameterError
from corrqec.pauli import PauliString, SparseState, apply_to_state, matrix_element
from corrqec.recovery import (
    DETECT_TOL,
    RecoverySet,
    build_recovery,
    correctable_set,
    count_correctable_sets,
    is_detectable,
    non_detectable_set,
    trace_preservation_deviation,
)

from corrqec.schemes import BASE_SCHEMES, build_code, scheme_recovery

from _oracles import (
    dense_complement_basis,
    dense_state,
    greedy_correctable_set,
    isclose,
    maximum_cliques,
    pattern_code,
)

CONCAT = concatenate(dfs2(), bitflip3(), label="concat6")


def support_for(code, flavor="bit"):
    """The 2^n X-strings (Z-strings) on the code's qubits, by mask: both models' support."""
    make = PauliString.x_string if flavor == "bit" else PauliString.z_string
    return tuple(make(code.n, m) for m in range(1 << code.n))


def detectable(code, support):
    """The support's operators that are detectable on their own."""
    return [op for op in support if is_detectable(code, op)]


def test_detectability_examples():
    bits = bitflip3()
    assert not is_detectable(bits, PauliString.x_string(3, 0b111))
    assert is_detectable(bits, PauliString.identity(3))
    # diagonal entries +1 and -1 differ
    assert not is_detectable(CONCAT, PauliString.x_string(6, 0b000111))
    # acts as -1 on the whole code space
    assert is_detectable(CONCAT, PauliString.x_string(6, 0b111111))


def test_bit3_detectable_set():
    bits = bitflip3()
    det = detectable(bits, support_for(bits))
    assert len(det) == 7
    assert [op.x_mask for op in non_detectable_set(bits, support_for(bits))] == [0b111]


def test_correctable_bit3():
    bits = bitflip3()
    corr = correctable_set(bits, support_for(bits))
    assert [op.x_mask for op in corr] == [0b000, 0b001, 0b010, 0b100]
    assert [op.label() for op in corr] == ["I", "X1", "X2", "X3"]
    assert corr[1] == PauliString(3, x_mask=0b001, z_mask=0, phase=0)


def test_correctable_dfs2():
    code = dfs2()
    corr = correctable_set(code, support_for(code))
    assert [op.label() for op in corr] == ["I", "X1X2"]
    det = detectable(code, support_for(code))
    assert [op.x_mask for op in det] == [op.x_mask for op in corr]


def test_correctable_concat_operator_lists():
    corr = correctable_set(CONCAT, support_for(CONCAT))
    assert len(corr) == 32
    by_weight = {}
    for op in corr:
        by_weight.setdefault(op.weight, set()).add(op.label())
    assert {w: len(v) for w, v in by_weight.items()} == {0: 1, 1: 6, 2: 9, 4: 9, 5: 6, 6: 1}
    assert by_weight[0] == {"I"}
    assert by_weight[1] == {"X1", "X2", "X3", "X4", "X5", "X6"}
    assert by_weight[2] == {
        "X1X4", "X1X5", "X1X6", "X2X4", "X2X5", "X2X6", "X3X4", "X3X5", "X3X6",
    }
    assert by_weight[4] == {
        "X1X2X4X5", "X1X2X4X6", "X1X2X5X6",
        "X1X3X4X5", "X1X3X4X6", "X1X3X5X6",
        "X2X3X4X5", "X2X3X4X6", "X2X3X5X6",
    }
    assert by_weight[5] == {
        "X1X2X3X4X5", "X1X2X3X4X6", "X1X2X4X5X6",
        "X1X3X4X5X6", "X1X2X3X5X6", "X2X3X4X5X6",
    }
    assert by_weight[6] == {"X1X2X3X4X5X6"}
    # selection order: ascending weight, then ascending mask
    keys = [(op.weight, op.x_mask) for op in corr]
    assert keys == sorted(keys)


def test_concat_non_detectable_pair():
    nondet = non_detectable_set(CONCAT, support_for(CONCAT))
    assert [op.label() for op in nondet] == ["X1X2X3", "X4X5X6"]
    assert len(detectable(CONCAT, support_for(CONCAT))) == 62


@pytest.mark.parametrize("flavor", ["bit", "phase"])
@pytest.mark.parametrize("base", BASE_SCHEMES)
def test_repeated_paulis_in_the_support_count_once(base, flavor):
    # model II's builder tuple repeats the identity and the full flip after
    # the 2^n strings; an identity accepted twice would change every set
    code = build_code(base, flavor)
    strings = support_for(code, flavor)
    repeated = build_channel(
        ChannelParams(p=0.5, mu=0.5, n=code.n, flavor=flavor, model=MODEL_II)
    ).paulis
    assert repeated == strings + (strings[0], strings[-1])
    for derive in (correctable_set, non_detectable_set, count_correctable_sets):
        assert derive(code, repeated) == derive(code, strings), derive.__name__


def test_correctable_set_empty_channel():
    with pytest.raises(ParameterError):
        correctable_set(bitflip3(), ())


def test_build_recovery_bit3():
    bits = bitflip3()
    rs = build_recovery(bits, correctable_set(bits, support_for(bits)))
    assert len(rs.ops) == 4 and not rs.complement
    # R2 = |0L><100| + |1L><011|; |100> -> index 1, |011> -> index 6
    assert rs.ops[1].v0.amplitudes == {1: 1}
    assert rs.ops[1].v1.amplitudes == {6: 1}
    assert all(len(op.members) == 1 for op in rs.ops)


def test_build_recovery_dfs2_degenerate():
    code = dfs2()
    rs = build_recovery(code, correctable_set(code, support_for(code)))
    assert len(rs.ops) == 1
    assert [m.label() for m in rs.ops[0].members] == ["I", "X1X2"]
    # v0 = I|0L> = |+->: amplitude 1/2 on |00> and on |10> (index 1)
    assert abs(rs.ops[0].v0.amplitudes[0] - 0.5) < 1e-12
    assert abs(rs.ops[0].v0.amplitudes[1] - 0.5) < 1e-12
    assert len(rs.complement) == 2
    # complement projector equals |++><++| + |--><--|
    got = sum(
        np.outer(dense_state(r), dense_state(r).conj()) for r in rs.complement
    )
    pp, mm = dense_state(pattern_state("++")), dense_state(pattern_state("--"))
    want = np.outer(pp, pp.conj()) + np.outer(mm, mm.conj())
    assert np.abs(got - want).max() < 1e-12


def test_build_recovery_concat_pairs_complementary_masks():
    # the full flip acts as -1 on the code space, so every correctable S is
    # degenerate with its complement ~S: 32 operators, 16 syndrome subspaces
    rs = build_recovery(CONCAT, correctable_set(CONCAT, support_for(CONCAT)))
    assert len(rs.ops) == 16
    assert len(rs.complement) == 32
    for rop in rs.ops:
        assert len(rop.members) == 2
        a, b = rop.members
        assert a.x_mask ^ b.x_mask == 0b111111
        y = apply_to_state(b, CONCAT.logical_zero)
        assert abs(rop.v0.inner(y) - (-1)) < 1e-12


@pytest.mark.parametrize("code", [bitflip3(), dfs2(), pattern_code("01", "10"), CONCAT])
def test_trace_preservation(code):
    rs = build_recovery(code, correctable_set(code, support_for(code)))
    assert trace_preservation_deviation(rs) <= DETECT_TOL


def test_trace_preservation_fails_with_missing_operator():
    bits = bitflip3()
    rs = build_recovery(bits, correctable_set(bits, support_for(bits)))
    broken = RecoverySet(rs.code, rs.ops[:-1], rs.complement)
    assert trace_preservation_deviation(broken) > 0.5


def test_syndrome_states_orthonormal():
    for code in (bitflip3(), dfs2(), CONCAT):
        rs = build_recovery(code, correctable_set(code, support_for(code)))
        states = [s for op in rs.ops for s in (op.v0, op.v1)] + list(rs.complement)
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(a.inner(b) - want) < 1e-10


def test_alpha_matrix_structure():
    def alpha(code):
        corr = correctable_set(code, support_for(code))
        return corr, np.array(
            [
                [
                    matrix_element(code.logical_zero, a.dagger() * b, code.logical_zero)
                    for b in corr
                ]
                for a in corr
            ]
        )

    # three-qubit code: non-degenerate, alpha diagonal with unit entries
    _, a3 = alpha(bitflip3())
    assert np.allclose(a3, np.eye(4))

    # noiseless pair: fully degenerate, rank-1 alpha
    _, a2 = alpha(dfs2())
    assert np.allclose(a2, np.array([[1, -1], [-1, 1]]))
    assert np.linalg.matrix_rank(a2) == 1

    # six-qubit code: unit diagonal plus -1 exactly at complementary masks
    corr, a6 = alpha(CONCAT)
    want = np.zeros((32, 32))
    for i, a in enumerate(corr):
        for j, b in enumerate(corr):
            if i == j:
                want[i, j] = 1.0
            elif a.x_mask ^ b.x_mask == 0b111111:
                want[i, j] = -1.0
    assert np.allclose(a6, want)
    assert np.linalg.matrix_rank(a6) == 16


def test_recovery_corrects_each_member():
    for code in (bitflip3(), dfs2(), CONCAT):
        rs = build_recovery(code, correctable_set(code, support_for(code)))
        for k, rop in enumerate(rs.ops):
            for member in rop.members:
                y0 = apply_to_state(member, code.logical_zero)
                y1 = apply_to_state(member, code.logical_one)
                # R_k maps the corrupted codewords back with one +-1 scalar
                lam0, lam1 = rop.v0.inner(y0), rop.v1.inner(y1)
                assert abs(abs(lam0) - 1) < 1e-12
                assert abs(lam0 - lam1) < 1e-12
                # every other recovery operator contributes no restricted trace
                for l, other in enumerate(rs.ops):
                    if l == k:
                        continue
                    t = other.v0.inner(y0) + other.v1.inner(y1)
                    assert abs(t) < 1e-12


@pytest.mark.parametrize("flavor", ["bit", "phase"])
@pytest.mark.parametrize("base", ["bit3", "dfs2", "concat6"])
def test_complement_equals_the_dense_gram_schmidt(base, flavor):
    _, rs = scheme_recovery(base, flavor)
    reference = dense_complement_basis(rs.code.n, rs.ops)
    assert [r.amplitudes for r in rs.complement] == [r.amplitudes for r in reference]


def test_scheme_recovery_builds_no_channel(monkeypatch):
    # a cold scheme_recovery inside a traced request would otherwise add
    # build_channel calls; its support must still give the set that the
    # Paulis of either model's channel give
    def members(ops):
        return sorted((op.x_mask, op.z_mask, op.phase) for op in ops)

    expected = {}
    for base in BASE_SCHEMES:
        for flavor in ("bit", "phase"):
            code = build_code(base, flavor)
            expected[base, flavor] = [
                members(correctable_set(code, build_channel(
                    ChannelParams(p=0.5, mu=0.5, n=code.n, flavor=flavor, model=model)
                ).paulis))
                for model in (MODEL_I, MODEL_II)
            ]

    def refuse(params):
        raise AssertionError("scheme_recovery built a channel")

    monkeypatch.setattr(channels, "build_channel", refuse)
    monkeypatch.setattr(schemes, "build_channel", refuse, raising=False)
    for (base, flavor), want in expected.items():
        _, rs = schemes.scheme_recovery.__wrapped__(base, flavor)
        got = members(op for rop in rs.ops for op in rop.members)
        assert want == [got, got], (base, flavor)


LEAVES = {
    "bit3": bitflip3(), "phase3": pattern_code("+++", "---"),
    "dfs2": dfs2(), "dfs2-phase": pattern_code("01", "10"),
}
CONCATENATIONS = [
    (top, bottom)
    for top, bottom in itertools.product(LEAVES, repeat=2)
    if LEAVES[top].n * LEAVES[bottom].n <= 6
]


@pytest.mark.parametrize("flavor", ["bit", "phase"])
@pytest.mark.parametrize("top,bottom", CONCATENATIONS)
def test_complement_of_concatenations(top, bottom, flavor):
    # the sparse and the dense sums run in different orders, so only rounding
    # may differ; the basis completes the syndrome spaces orthonormally
    code = concatenate(LEAVES[top], LEAVES[bottom])
    rs = build_recovery(code, correctable_set(code, support_for(code, flavor)))
    reference = dense_complement_basis(code.n, rs.ops)
    assert len(rs.complement) == len(reference) == (1 << code.n) - 2 * len(rs.ops)
    for got, want in zip(rs.complement, reference):
        assert isclose(got, want, tol=1e-12)
    for i, r in enumerate(rs.complement):
        for j, other in enumerate(rs.complement):
            assert abs(r.inner(other) - (i == j)) <= 1e-12
        for op in rs.ops:
            assert abs(op.v0.inner(r)) <= 1e-12 and abs(op.v1.inner(r)) <= 1e-12


def test_recovery_set_refuses_a_complement_overlapping_the_code():
    code = dfs2()
    rs = build_recovery(code, correctable_set(code, support_for(code)))
    zero = code.logical_zero.amplitudes

    def tilted(eps):
        r = rs.complement[0].amplitudes
        return SparseState(2, {k: r.get(k, 0j) + eps * zero.get(k, 0j) for k in range(4)})

    # overlaps up to DETECT_TOL are rounding; beyond it the set is refused
    RecoverySet(code, rs.ops, (tilted(DETECT_TOL / 10),) + rs.complement[1:])
    with pytest.raises(ContractViolationError):
        RecoverySet(code, rs.ops, (tilted(DETECT_TOL * 10),) + rs.complement[1:])


def test_recovery_sets_compare_by_identity():
    code, rs = scheme_recovery("concat6", "bit")
    rebuilt = RecoverySet(code, rs.ops, rs.complement)
    assert rebuilt != rs
    assert rs == rs
    assert len({rs, rebuilt}) == 2


def test_build_recovery_rejects_non_correctable_input():
    bits = bitflip3()
    bad = [PauliString.identity(3), PauliString.x_string(3, 0b111)]
    with pytest.raises(ContractViolationError):
        build_recovery(bits, bad)
    with pytest.raises(ParameterError):
        build_recovery(bits, [])


@pytest.mark.parametrize("flavor", ["bit", "phase"])
@pytest.mark.parametrize("name", list(LEAVES) + [f"concat({t},{b})" for t, b in CONCATENATIONS])
def test_correctable_set_is_the_greedy_oracle_set(name, flavor):
    # the full support, then seeded sub-supports, half of them without the
    # identity, so the seed rather than a candidate picks the code-space cell
    parts = name.removeprefix("concat(").removesuffix(")").split(",")
    code = concatenate(*(LEAVES[p] for p in parts)) if len(parts) == 2 else LEAVES[name]
    support = support_for(code, flavor)
    assert correctable_set(code, support) == greedy_correctable_set(code, support)
    rng = random.Random(f"{name} {flavor}")
    for k in range(10):
        sub = [op for op in support[1:] if rng.random() < 0.5] or [support[-1]]
        if k % 2:
            sub.append(support[0])
        assert correctable_set(code, sub) == greedy_correctable_set(code, sub), (k, sub)


@pytest.mark.parametrize(
    "base,flavor,sets",
    [(base, flavor, sets) for base, sets in (("bit3", 8), ("dfs2", 1), ("unencoded", 1))
     for flavor in ("bit", "phase")] + [("concat6", "bit", 32768)],
)
def test_count_is_the_clique_oracle_count(base, flavor, sets):
    # every maximum clique of the detectability graph holding the identity is a
    # correctable set the partition counts, and the canonical set is one of them
    code = build_code(base, flavor)
    support = support_for(code, flavor)
    cliques = [c for c in maximum_cliques(code, support) if c & 1]
    assert count_correctable_sets(code, support) == len(cliques) == sets
    canonical = sum(1 << support.index(op) for op in correctable_set(code, support))
    assert canonical in cliques


def test_the_partition_classifies_each_distinct_product_once(monkeypatch):
    # one kind per product mask, read from the four restricted matrix elements
    support = support_for(CONCAT)
    checked = Counter()

    def counting(bra, op, ket):
        checked[op.x_mask, op.z_mask] += 1
        return matrix_element(bra, op, ket)

    monkeypatch.setattr(recovery, "matrix_element", counting)
    assert count_correctable_sets(CONCAT, support) == 32768
    assert len(checked) == 64 and set(checked.values()) == {4}


def test_the_partition_refuses_a_partial_overlap():
    # X1 maps |1L> = (|01> + |10>)/sqrt2 half onto |0L> = |00>: its restriction
    # is neither zero nor unitary, so no syndrome holds it
    zero = SparseState(2, {0: 1.0})
    one = SparseState(2, {1: 2 ** -0.5, 2: 2 ** -0.5})
    code = QuantumCode(2, zero, one, "partial")
    with pytest.raises(ContractViolationError, match="overlap without coinciding"):
        correctable_set(code, support_for(code))

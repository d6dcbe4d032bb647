import math

import pytest

from corrqec.codes import (
    QuantumCode,
    bitflip3,
    concatenate,
    dfs2,
    hadamard_conjugate_code,
    hadamard_transform,
    pattern_state,
    phaseflip3,
)
from corrqec.errors import CapacityError, ContractViolationError, ParameterError
from corrqec.pauli import SparseState, basis_state

from _oracles import isclose


def identity_code():
    """|0> -> |0>, |1> -> |1>: the neutral element of concatenation."""
    return QuantumCode(1, basis_state(1, 0), basis_state(1, 1), "trivial")


def test_bitflip3_codewords():
    code = bitflip3()
    assert code.logical_zero.amplitudes == {0: 1}
    assert code.logical_one.amplitudes == {7: 1}
    assert code.logical_zero.inner(code.logical_one) == 0


def test_phaseflip3_codewords():
    code = phaseflip3()
    amp = 1 / math.sqrt(8)
    assert abs(code.logical_zero.amplitudes[0] - amp) < 1e-15
    assert abs(code.logical_one.amplitudes[7] - (-amp)) < 1e-15
    # |---> carries the bit-parity sign on every basis ket
    for idx, a in code.logical_one.amplitudes.items():
        assert abs(a - amp * (-1) ** idx.bit_count()) < 1e-15
    assert abs(code.logical_zero.norm() - 1) < 1e-12
    assert abs(code.logical_one.norm() - 1) < 1e-12


def test_dfs2_flavors():
    bit = dfs2("bit")
    assert isclose(bit.logical_zero, pattern_state("+-"))
    assert isclose(bit.logical_one, pattern_state("-+"))
    phase = dfs2("phase")
    assert phase.logical_zero.amplitudes == {0b10: 1}  # |01>: qubit 2 set
    assert phase.logical_one.amplitudes == {0b01: 1}
    with pytest.raises(ParameterError):
        dfs2("other")


def test_concatenate_reproduces_six_qubit_codewords():
    code = concatenate(dfs2("bit"), bitflip3())
    # kets written |000000>, |000111>, |111000>, |111111> with qubit 1
    # leftmost (= least significant bit) have indices 0, 56, 7, 63
    zero = {0: 0.5, 56: -0.5, 7: 0.5, 63: -0.5}
    one = {0: 0.5, 56: 0.5, 7: -0.5, 63: -0.5}
    assert set(code.logical_zero.amplitudes) == set(zero)
    for idx, want in zero.items():
        assert abs(code.logical_zero.amplitudes[idx] - want) < 1e-15
    for idx, want in one.items():
        assert abs(code.logical_one.amplitudes[idx] - want) < 1e-15
    assert code.n == 6


def test_concatenate_with_trivial_identity():
    base = dfs2("bit")
    same = concatenate(base, identity_code())
    assert isclose(same.logical_zero, base.logical_zero)
    assert isclose(same.logical_one, base.logical_one)
    lifted = concatenate(identity_code(), base)
    assert isclose(lifted.logical_zero, base.logical_zero)
    assert isclose(lifted.logical_one, base.logical_one)


def test_concatenate_phase_flavor_substitution():
    code = concatenate(dfs2("phase"), phaseflip3())
    want_zero = pattern_state("+++---")
    want_one = pattern_state("---+++")
    assert isclose(code.logical_zero, want_zero)
    assert isclose(code.logical_one, want_one)


def test_phase_concat_scheme_is_the_hadamard_mirror():
    # substituting phase-flip blocks into the bit-flavor pair expansion equals
    # rotating the six-qubit code by H on every qubit
    bit_code = concatenate(dfs2("bit"), bitflip3())
    rotated = hadamard_conjugate_code(bit_code)
    mirrored = concatenate(dfs2("bit"), phaseflip3())
    assert isclose(mirrored.logical_zero, rotated.logical_zero)
    assert isclose(mirrored.logical_one, rotated.logical_one)
    # support: the 16 kets with even parity on the first block and odd on the
    # second, all with amplitude 1/4
    amps = mirrored.logical_zero.amplitudes
    assert len(amps) == 16
    for idx, amp in amps.items():
        assert (idx & 0b000111).bit_count() % 2 == 0
        assert (idx & 0b111000).bit_count() % 2 == 1
        assert abs(amp - 0.25) < 1e-14


def test_hadamard_transform_involution():
    state = concatenate(dfs2("bit"), bitflip3()).logical_zero
    assert isclose(hadamard_transform(hadamard_transform(state)), state)


def test_concatenate_associativity_smoke():
    t = identity_code()
    base = bitflip3()
    left = concatenate(concatenate(base, t), t)
    right = concatenate(base, concatenate(t, t))
    assert isclose(left.logical_zero, right.logical_zero)
    assert isclose(left.logical_one, right.logical_one)


def test_concatenate_capacity():
    four = QuantumCode(4, basis_state(4, 0), basis_state(4, 0b1111), "rep4")
    with pytest.raises(CapacityError):
        concatenate(concatenate(dfs2("bit"), bitflip3()), four)


def test_pattern_state_rejects_garbage():
    with pytest.raises(ParameterError):
        pattern_state("+x")
    with pytest.raises(ParameterError):
        pattern_state("")


def test_code_validation():
    with pytest.raises(ContractViolationError):
        QuantumCode(2, SparseState(2, {0: 0.5}), basis_state(2, 1), "bad-norm")
    plus = pattern_state("+0")
    with pytest.raises(ContractViolationError):
        QuantumCode(2, plus, basis_state(2, 0), "bad-overlap")


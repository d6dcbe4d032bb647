import pytest

from corrqec.codes import (
    QuantumCode,
    bitflip3,
    concatenate,
    dfs2,
    hadamard_transform,
    pattern_state,
)
from corrqec.errors import CapacityError, ContractViolationError, ParameterError
from corrqec.pauli import NORM_TOL, SparseState, basis_state
from corrqec.schemes import build_code

from _oracles import isclose, pattern_code


def identity_code():
    """|0> -> |0>, |1> -> |1>: the neutral element of concatenation."""
    return QuantumCode(1, basis_state(1, 0), basis_state(1, 1), "trivial")


def test_bitflip3_codewords():
    code = bitflip3()
    assert code.logical_zero.amplitudes == {0: 1}
    assert code.logical_one.amplitudes == {7: 1}
    assert code.logical_zero.inner(code.logical_one) == 0


def assert_codewords(code, zero, one):
    # the rotation moves amplitudes by rounding, e.g. 2^-1.5 for 0.7071067811865475^3
    assert isclose(code.logical_zero, pattern_state(zero), tol=NORM_TOL)
    assert isclose(code.logical_one, pattern_state(one), tol=NORM_TOL)


def test_phaseflip3_codewords():
    # the phase flavor of bitflip3, derived by the rotation
    assert_codewords(build_code("bit3", "phase"), "+++", "---")


def test_dfs2_flavors():
    assert_codewords(dfs2(), "+-", "-+")
    assert_codewords(build_code("dfs2", "phase"), "01", "10")


def test_concatenate_reproduces_six_qubit_codewords():
    code = concatenate(dfs2(), bitflip3())
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
    base = dfs2()
    same = concatenate(base, identity_code())
    assert isclose(same.logical_zero, base.logical_zero)
    assert isclose(same.logical_one, base.logical_one)
    lifted = concatenate(identity_code(), base)
    assert isclose(lifted.logical_zero, base.logical_zero)
    assert isclose(lifted.logical_one, base.logical_one)


def test_concatenate_phase_flavor_substitution():
    code = concatenate(pattern_code("01", "10"), pattern_code("+++", "---"))
    want_zero = pattern_state("+++---")
    want_one = pattern_state("---+++")
    assert isclose(code.logical_zero, want_zero)
    assert isclose(code.logical_one, want_one)


def test_phase_concat_scheme_is_the_hadamard_mirror():
    # rotating the six-qubit code by H on every qubit equals substituting
    # phase-flip blocks into the bit-flavor pair expansion
    rotated = build_code("concat6", "phase")
    mirrored = concatenate(dfs2(), pattern_code("+++", "---"))
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
    state = concatenate(dfs2(), bitflip3()).logical_zero
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
        concatenate(concatenate(dfs2(), bitflip3()), four)


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


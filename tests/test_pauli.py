import itertools

import numpy as np
import pytest

from corrqec.codes import concatenate, bitflip3, dfs2, pattern_state
from corrqec.errors import DimensionError
from corrqec.pauli import (
    PauliString,
    SparseState,
    _dense_block,
    apply_to_state,
    basis_state,
    matrix_element,
    multiply,
)

from _oracles import dense_pauli, dense_state, hadamard_conjugate, isclose, normalized


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_equals_kron_oracle_exhaustive_small(n):
    for x, z, phase in itertools.product(range(1 << n), range(1 << n), range(4)):
        got = PauliString(n, x, z, phase).dense()
        assert got.dtype == complex
        assert np.array_equal(got, dense_pauli(n, x, z, phase)), (x, z, phase)


def test_dense_equals_kron_oracle_for_six_qubit_strings():
    for mask in range(1 << 6):
        assert np.array_equal(PauliString.x_string(6, mask).dense(), dense_pauli(6, mask, 0))
        assert np.array_equal(PauliString.z_string(6, mask).dense(), dense_pauli(6, 0, mask))


def strided_strings(n):
    """Mixed X/Z strings in every phase: masks on a fixed stride coprime to 2^n."""
    full = 1 << n
    for i in range(0, full, 3):
        for k in range(4):
            yield PauliString(n, i, (5 * i + 3) % full, k)
            yield PauliString(n, (7 * i + 1) % full, i, k)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_dense_equals_kron_oracle_for_mixed_strings_in_every_phase(n):
    for p in strided_strings(n):
        assert np.array_equal(p.dense(), dense_pauli(n, p.x_mask, p.z_mask, p.phase)), p


@pytest.mark.parametrize("n", [2, 3, 6])
def test_dense_returns_a_fresh_writeable_matrix(n):
    p = PauliString(n, 1, (1 << n) - 1, 1)
    first = p.dense()
    assert first.flags.writeable
    first[:] = 7
    assert np.array_equal(p.dense(), dense_pauli(n, p.x_mask, p.z_mask, p.phase))


def test_dense_block_cache_stays_bounded():
    # every (x, z, phase) of the first block, so 260 distinct blocks in all:
    # the cache has to evict and still build each string right
    _dense_block.cache_clear()
    for x, z, k in itertools.product(range(8), range(8), range(4)):
        p = PauliString(7, x | z << 3 | (x & 1) << 6, z | x << 3 | (z & 1) << 6, k)
        assert np.array_equal(p.dense(), dense_pauli(7, p.x_mask, p.z_mask, k)), p
        assert _dense_block.cache_info().currsize <= 256


def test_multiply_x_squares_to_identity():
    x1 = PauliString.x_string(2, 0b01)
    prod = multiply(x1, x1)
    assert prod == PauliString.identity(2)
    assert prod.sign == 1


def test_multiply_single_qubit_anticommutation():
    z = PauliString.z_string(1, 1)
    x = PauliString.x_string(1, 1)
    zx = multiply(z, x)
    assert (zx.x_mask, zx.z_mask) == (1, 1)
    # (ZX)^2 = -I
    square = multiply(zx, zx)
    assert square.x_mask == 0 and square.z_mask == 0
    assert square.sign == -1


def test_multiply_mask_xor_no_z_factors():
    a = PauliString.x_string(6, 0b000111)  # X1X2X3
    b = PauliString.x_string(6, 0b001100)  # X3X4
    prod = multiply(a, b)
    assert prod == PauliString.x_string(6, 0b001011)  # X1X2X4
    assert prod.sign == 1


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        multiply(PauliString.identity(2), PauliString.identity(3))


@pytest.mark.parametrize("n", [1, 2])
def test_multiply_exhaustive_dense_oracle_small(n):
    ops = [
        PauliString(n, x, z, k)
        for x in range(1 << n)
        for z in range(1 << n)
        for k in range(4)
    ]
    for a, b in itertools.product(ops, ops):
        want = dense_pauli(n, a.x_mask, a.z_mask, a.phase) @ dense_pauli(
            n, b.x_mask, b.z_mask, b.phase
        )
        got = multiply(a, b)
        assert np.allclose(dense_pauli(n, got.x_mask, got.z_mask, got.phase), want)


def test_multiply_exhaustive_dense_oracle_n3():
    # all mask pairs; phases sampled to keep the product count sane
    rng = np.random.default_rng(3)
    for xa in range(8):
        for za in range(8):
            for xb in range(8):
                for zb in range(8):
                    ka, kb = rng.integers(0, 4, size=2)
                    a = PauliString(3, xa, za, int(ka))
                    b = PauliString(3, xb, zb, int(kb))
                    got = multiply(a, b)
                    want = dense_pauli(3, xa, za, int(ka)) @ dense_pauli(3, xb, zb, int(kb))
                    assert np.allclose(
                        dense_pauli(3, got.x_mask, got.z_mask, got.phase), want
                    )


def test_multiply_associative_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (
            PauliString(
                4,
                int(rng.integers(0, 16)),
                int(rng.integers(0, 16)),
                int(rng.integers(0, 4)),
            )
            for _ in range(3)
        )
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_dagger_matches_conjugate_transpose():
    for x in range(4):
        for z in range(4):
            for k in range(4):
                p = PauliString(2, x, z, k)
                d = p.dagger()
                assert np.allclose(
                    dense_pauli(2, d.x_mask, d.z_mask, d.phase),
                    dense_pauli(2, x, z, k).conj().T,
                )


def test_apply_to_state_basis_examples():
    # X on qubit 1 of |000>
    assert apply_to_state(PauliString.x_string(3, 0b001), basis_state(3, 0)).amplitudes == {1: 1}
    # Z on qubit 1 of |001> (index 1) picks up -1
    out = apply_to_state(PauliString.z_string(3, 0b001), basis_state(3, 1))
    assert out.amplitudes == {1: -1}
    # X1X2 on |110000> (qubits 1,2 set -> index 3) returns |000000>
    out = apply_to_state(PauliString.x_string(6, 0b000011), basis_state(6, 0b000011))
    assert out.amplitudes == {0: 1}


def test_basis_index_range_check():
    with pytest.raises(DimensionError):
        basis_state(2, 4)
    with pytest.raises(DimensionError):
        SparseState(2, {-1: 1.0})
    # a ket in range for 3 qubits is not one for a 2-qubit string
    with pytest.raises(DimensionError):
        apply_to_state(PauliString.identity(2), basis_state(3, 4))


def test_apply_to_state_identity():
    state = pattern_state("+-")
    out = apply_to_state(PauliString.identity(2), state)
    assert isclose(out, state)


def test_apply_to_state_dfs_eigenvector():
    # X (x) X acting on |+-> flips its sign
    state = pattern_state("+-")
    out = apply_to_state(PauliString.x_string(2, 0b11), state)
    scaled = SparseState(2, {i: -a for i, a in state.amplitudes.items()})
    assert isclose(out, scaled)


def test_apply_to_state_concat_block_eigenvalues():
    code = concatenate(dfs2(), bitflip3())
    x123 = PauliString.x_string(6, 0b000111)
    plus = apply_to_state(x123, code.logical_zero)
    assert isclose(plus, code.logical_zero)
    minus = apply_to_state(x123, code.logical_one)
    flipped = SparseState(6, {i: -a for i, a in code.logical_one.amplitudes.items()})
    assert isclose(minus, flipped)


def test_unitarity_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        amps = {
            int(i): complex(rng.normal(), rng.normal())
            for i in rng.choice(1 << n, size=min(4, 1 << n), replace=False)
        }
        state = normalized(SparseState(n, amps))
        p = PauliString(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
        )
        assert abs(apply_to_state(p, state).norm() - 1.0) < 1e-12


def test_involution_for_real_signed_strings():
    state = normalized(pattern_state("+-0"))
    p = PauliString.x_string(3, 0b101)
    assert isclose(apply_to_state(p, apply_to_state(p, state)), state)
    q = PauliString.z_string(3, 0b110)
    assert isclose(apply_to_state(q, apply_to_state(q, state)), state)


def test_matrix_element_examples():
    code = bitflip3()
    assert matrix_element(code.logical_zero, PauliString.identity(3), code.logical_zero) == 1
    # <0L|X1|1L> on the three-qubit code: |100> vs |111> do not overlap
    assert matrix_element(code.logical_zero, PauliString.x_string(3, 1), code.logical_one) == 0

    concat = concatenate(dfs2(), bitflip3())
    x456 = PauliString.x_string(6, 0b111000)
    val = matrix_element(concat.logical_zero, x456, concat.logical_zero)
    assert abs(val - (-1)) < 1e-12
    x123 = PauliString.x_string(6, 0b000111)
    val = matrix_element(concat.logical_zero, x123, concat.logical_zero)
    assert abs(val - 1) < 1e-12


def test_matrix_element_against_dense():
    rng = np.random.default_rng(9)
    bra = normalized(SparseState(3, {0: 0.5, 3: 0.5j, 6: -0.5, 7: 0.5}))
    ket = normalized(SparseState(3, {1: 1.0, 2: -1.0j, 5: 2.0}))
    for _ in range(40):
        p = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        want = dense_state(bra).conj() @ dense_pauli(3, p.x_mask, p.z_mask, p.phase) @ dense_state(ket)
        assert abs(matrix_element(bra, p, ket) - want) < 1e-12


def test_hadamard_conjugate():
    assert hadamard_conjugate(PauliString.x_string(1, 1)) == PauliString.z_string(1, 1)
    assert hadamard_conjugate(PauliString.identity(4)) == PauliString.identity(4)
    assert hadamard_conjugate(PauliString.x_string(6, 0b000111)) == PauliString.z_string(
        6, 0b000111
    )


def test_hadamard_conjugate_is_involution():
    for x in range(8):
        for z in range(8):
            for k in range(4):
                p = PauliString(3, x, z, k)
                assert hadamard_conjugate(hadamard_conjugate(p)) == p


def test_hadamard_conjugate_matches_dense():
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    h3 = np.kron(np.kron(h1, h1), h1)
    for x in range(8):
        for z in range(8):
            p = PauliString(3, x, z, 0)
            q = hadamard_conjugate(p)
            want = h3 @ dense_pauli(3, x, z, 0) @ h3
            assert np.allclose(dense_pauli(3, q.x_mask, q.z_mask, q.phase), want)


def test_sparse_state_prunes_tiny_amplitudes():
    state = SparseState(2, {0: 1.0, 1: 1e-16})
    assert set(state.amplitudes) == {0}


def test_sparse_state_validation():
    with pytest.raises(DimensionError):
        SparseState(2, {4: 1.0})
    with pytest.raises(DimensionError):
        basis_state(2, 0).inner(basis_state(3, 0))


def test_pauli_mask_validation():
    with pytest.raises(DimensionError):
        PauliString(2, x_mask=0b100)


def test_labels():
    assert PauliString.identity(3).label() == "I"
    assert PauliString.x_string(6, 0b000111).label() == "X1X2X3"
    assert PauliString(1, 1, 1, 2).label() == "-X1Z1"

import numpy as np
import pytest

from corrqec import channels
from corrqec.channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    build_channel,
)
from corrqec.cli import main
from corrqec.errors import CapacityError, ParameterError
from corrqec.fidelity import _Poly

from _oracles import (
    choi_matrix,
    dense_pauli,
    indexed_chain_weights,
    model1_weights,
    model2_weights,
    phase_flavor,
)


def params(p, mu, n, model=MODEL_I, flavor="bit"):
    return ChannelParams(p=p, mu=mu, n=n, flavor=flavor, model=model)


def transition(p, mu):
    """P(i_2 = cur | i_1 = prev), keyed (cur, prev), read off the n = 2 model I channel."""
    weights = [w for w, _ in build_channel(params(p, mu, 2)).terms]
    first = (1.0 - p, p)
    return {
        (cur, prev): weights[prev | cur << 1] / first[prev] for cur in (0, 1) for prev in (0, 1)
    }


def test_conditional_probability_example():
    assert abs(transition(0.1, 0.5)[0, 0] - 0.95) < 1e-15


def test_conditional_probability_memoryless_limit():
    for (cur, prev), got in transition(0.3, 0.0).items():
        assert abs(got - (0.3 if cur else 0.7)) < 1e-15


def test_conditional_probability_perfect_memory():
    for (cur, prev), got in transition(0.3, 1.0).items():
        assert got == (1.0 if cur == prev else 0.0)


def test_model1_two_qubit_table():
    # hand-derived: p00*p0, p10*p0, p01*p1, p11*p1 at p=0.1, mu=0.5
    channel = build_channel(params(0.1, 0.5, 2))
    weights = {op.x_mask: w for w, op in channel.terms}
    assert abs(weights[0b00] - 0.855) < 1e-12
    assert abs(weights[0b01] - 0.045) < 1e-12  # X1
    assert abs(weights[0b10] - 0.045) < 1e-12  # X2
    assert abs(weights[0b11] - 0.055) < 1e-12  # X1X2
    assert [op.x_mask for _, op in channel.terms] == [0, 1, 2, 3]


def test_model1_memoryless_limit_is_iid():
    channel = build_channel(params(0.2, 0.0, 3))
    for w, op in channel.terms:
        k = op.x_mask.bit_count()
        assert abs(w - 0.2**k * 0.8 ** (3 - k)) < 1e-15
    assert abs(dict(((op.x_mask, w) for w, op in channel.terms))[0b111] - 0.2**3) < 1e-15


def test_model1_perfect_memory_two_survivors():
    channel = build_channel(params(0.1, 1.0, 3))
    nonzero = {op.x_mask: w for w, op in channel.terms if w > 0}
    assert set(nonzero) == {0b000, 0b111}
    assert abs(nonzero[0b000] - 0.9) < 1e-15
    assert abs(nonzero[0b111] - 0.1) < 1e-15
    # zero-weight operators stay on the term list
    assert len(channel.terms) == 8


def test_model1_markov_marginal_is_stationary():
    for n in (2, 4, 6):
        for p in (0.1, 0.37):
            for mu in (0.0, 0.4, 0.9):
                channel = build_channel(params(p, mu, n))
                for bit in range(n):
                    marg = sum(w for w, op in channel.terms if (op.x_mask >> bit) & 1)
                    assert abs(marg - p) < 1e-12


def test_model2_merge_example():
    channel = build_channel(params(0.1, 0.5, 2, model=MODEL_II))
    assert len(channel.terms) == 6  # unmerged: 4 iid + 2 all-or-nothing
    merged = channel.merged()
    weights = {op.x_mask: w for w, op in merged.terms}
    assert abs(weights[0b00] - 0.81) < 1e-12
    assert abs(weights[0b01] - 0.045) < 1e-12
    assert abs(weights[0b10] - 0.045) < 1e-12
    assert abs(weights[0b11] - 0.10) < 1e-12


def test_model2_perfect_memory():
    channel = build_channel(params(0.1, 1.0, 3, model=MODEL_II))
    nonzero = {op.x_mask: w for w, op in channel.terms if w > 0}
    assert set(nonzero) == {0b000, 0b111}
    assert abs(nonzero[0b000] - 0.729) < 1e-12
    assert abs(nonzero[0b111] - 0.271) < 1e-12


def test_model2_matches_model1_at_mu_zero():
    for n in (1, 2, 3, 4, 5):
        for p in (0.0, 0.1, 0.5, 1.0):
            m1 = build_channel(params(p, 0.0, n)).merged()
            m2 = build_channel(params(p, 0.0, n, model=MODEL_II)).merged()
            assert [op.x_mask for _, op in m1.terms] == [op.x_mask for _, op in m2.terms]
            for (w1, _), (w2, _) in zip(m1.terms, m2.terms):
                assert abs(w1 - w2) < 1e-12


def test_normalization_sweep():
    for n in range(1, 9):
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            for mu in (0.0, 0.3, 0.7, 1.0):
                for model in (MODEL_I, MODEL_II):
                    channel = build_channel(params(p, mu, n, model=model))
                    assert abs(channel.total_weight() - 1.0) < 1e-12


def test_dense_cptp_oracle_small_n():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for model in (MODEL_I, MODEL_II):
            p, mu = float(rng.uniform()), float(rng.uniform())
            channel = build_channel(params(p, mu, n, model=model))
            kraus = [
                np.sqrt(w) * dense_pauli(n, op.x_mask, op.z_mask, op.phase)
                for w, op in channel.terms
            ]
            total = sum(k.conj().T @ k for k in kraus)
            assert np.abs(total - np.eye(1 << n)).max() < 1e-12
            eigs = np.linalg.eigvalsh(choi_matrix(kraus))
            assert eigs.min() > -1e-12


def test_model1_dense_superoperator_matches_direct_construction():
    # independent reconstruction: loop over error strings, conditionals chained
    n, p, mu = 3, 0.23, 0.61
    channel = build_channel(params(p, mu, n))
    got = {op.x_mask: w for w, op in channel.terms}
    for bits in range(1 << n):
        b = [(bits >> k) & 1 for k in range(n)]
        w = p if b[0] else 1 - p
        for k in range(1, n):
            w *= (1 - mu) * (p if b[k] else 1 - p) + (mu if b[k] == b[k - 1] else 0.0)
        assert abs(got[bits] - w) < 1e-15


def test_phase_flavor_single_qubit():
    channel = build_channel(params(0.1, 0.0, 1))
    flipped = phase_flavor(channel)
    weights = {(op.x_mask, op.z_mask): w for w, op in flipped.terms}
    assert abs(weights[(0, 0)] - 0.9) < 1e-15
    assert abs(weights[(0, 1)] - 0.1) < 1e-15


def test_phase_flavor_identity_channel_unchanged():
    channel = build_channel(params(0.0, 0.3, 2))
    flipped = phase_flavor(channel)
    assert sum(w for w, op in flipped.terms if op.is_identity) == pytest.approx(1.0)


def test_phase_flavor_preserves_weights():
    channel = build_channel(params(0.1, 0.5, 3))
    flipped = phase_flavor(channel)
    for (w1, op1), (w2, op2) in zip(channel.terms, flipped.terms):
        assert w1 == w2
        assert op2.z_mask == op1.x_mask and op2.x_mask == 0
    again = phase_flavor(flipped)
    assert [op.x_mask for _, op in again.terms] == [op.x_mask for _, op in channel.terms]


def test_phase_flavor_built_directly():
    direct = build_channel(params(0.1, 0.5, 3, flavor="phase"))
    conjugated = phase_flavor(build_channel(params(0.1, 0.5, 3)))
    assert [(w, op.z_mask) for w, op in direct.terms] == [
        (w, op.z_mask) for w, op in conjugated.terms
    ]


def test_param_validation():
    with pytest.raises(ParameterError):
        ChannelParams(p=1.1, mu=0.0, n=2)
    with pytest.raises(ParameterError):
        ChannelParams(p=0.1, mu=-0.2, n=2)
    with pytest.raises(ParameterError):
        ChannelParams(p=0.1, mu=0.0, n=0)
    with pytest.raises(CapacityError):
        ChannelParams(p=0.1, mu=0.0, n=17)
    with pytest.raises(ParameterError):
        ChannelParams(p=0.1, mu=0.0, n=2, flavor="y")
    with pytest.raises(ParameterError):
        ChannelParams(p=0.1, mu=0.0, n=2, model=3)


@pytest.mark.parametrize("n", [2.0, True, False, "2", None])
def test_param_validation_refuses_a_qubit_count_that_is_not_an_int(n):
    # 2.0 used to fail later, in the builders' shifts, and True built one qubit
    with pytest.raises(ParameterError, match=r"^n must be an integer, got "):
        ChannelParams(p=0.1, mu=0.0, n=n)
    with pytest.raises(ParameterError, match=r"^n must be an integer, got "):
        ChannelParams(p=0.1, mu=0.0, n=2)._replace(n=n)


@pytest.mark.parametrize("model", [True, False, 1.0, 2.0, "1", None, 3])
def test_param_validation_refuses_a_model_that_is_not_1_or_2(model):
    # True == 1 and 2.0 == 2 used to pass and be printed as the table's model
    with pytest.raises(ParameterError, match=r"^model must be 1 or 2, got "):
        ChannelParams(p=0.1, mu=0.0, n=2, model=model)
    with pytest.raises(ParameterError, match=r"^model must be 1 or 2, got "):
        ChannelParams(p=0.1, mu=0.0, n=2)._replace(model=model)


def test_replaced_params_are_checked_and_stored_as_floats():
    given = ChannelParams(p=0.1, mu=0.0, n=2)._replace(p=1, model=MODEL_II)
    assert given == ChannelParams(1.0, 0.0, 2, "bit", MODEL_II)
    assert type(given.p) is float
    with pytest.raises(ParameterError):
        given._replace(mu=1.5)


def test_builders_check_model_field():
    # build_channel reads the model from the field, which ChannelParams has
    # already checked; each (n, model) keeps one cached Pauli tuple
    one = build_channel(params(0.1, 0.5, 2, model=MODEL_I))
    two = build_channel(params(0.1, 0.5, 2, model=MODEL_II))
    assert (len(one.terms), len(two.terms)) == (4, 6)
    assert one.paulis is build_channel(params(0.3, 0.2, 2, model=MODEL_I)).paulis
    assert two.paulis is build_channel(params(0.3, 0.2, 2, model=MODEL_II)).paulis
    assert one.shared and two.shared


def test_operators_dedupes_but_terms_do_not():
    channel = build_channel(params(0.2, 0.7, 2, model=MODEL_II))
    assert len(channel.terms) == 6
    assert len(channel.merged().terms) == 4


def test_merged_is_sorted_and_normalized():
    channel = build_channel(params(0.3, 0.4, 3, model=MODEL_II)).merged()
    masks = [op.x_mask for _, op in channel.terms]
    assert masks == sorted(masks)
    assert abs(channel.total_weight() - 1.0) < 1e-12


WEIGHT_EDGE_VALUES = (0.0, 1.0, 5e-324, 1e-300, 1.0 - 2**-53, 1.0 / 3.0, 0.1, 0.9)


def test_weights_are_bit_identical_to_per_mask_loops():
    for n in range(1, 9):
        for p in WEIGHT_EDGE_VALUES:
            for mu in WEIGHT_EDGE_VALUES:
                for model, reference in ((MODEL_I, model1_weights), (MODEL_II, model2_weights)):
                    got = [w for w, _ in build_channel(params(p, mu, n, model)).terms]
                    want = reference(n, p, mu)
                    assert [w.hex() for w in got] == [w.hex() for w in want], (model, n, p, mu)


def test_chain_weights_equal_the_indexed_step_lookup():
    grid = (0.0, 1e-300, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0 - 2**-53, 1.0)
    for n in range(1, 7):
        for p in grid:
            for mu in grid:
                got = channels._chain_weights(n, p, mu)
                want = indexed_chain_weights(n, p, mu)
                # hex also tells -0.0 from 0.0
                assert [w.hex() for w in got] == [w.hex() for w in want], (n, p, mu)


def test_integer_parameters_are_stored_as_floats():
    # the weight code writes 1 - p, which would keep an int p an int
    for model in (MODEL_I, MODEL_II):
        for p, mu in ((0, 0), (0, 1), (1, 0), (1, 1)):
            given = params(p, mu, 2, model)
            assert type(given.p) is float and type(given.mu) is float
            got = build_channel(given).weights
            assert all(type(w) is float for w in got), (model, p, mu)
            want = build_channel(params(float(p), float(mu), 2, model)).weights
            assert [w.hex() for w in got] == [w.hex() for w in want], (model, p, mu)


def test_weights_sum_to_one_exactly():
    # the weight functions run on the symbols p and mu, as the threshold
    # derivation runs them, so normalization holds as a polynomial identity
    p, mu = _Poly({(0, 1): 1}), _Poly({(1, 0): 1})
    weight_functions = {MODEL_I: channels._chain_weights, MODEL_II: channels._model2_weights}
    for n in range(1, 9):
        for model, weigh in weight_functions.items():
            total = sum(weigh(n, p, mu))
            assert {key: c for key, c in total.items() if c} == {(0, 0): 1}, (model, n)


def _scaled_chain_weights(n, p, mu):
    return [w * (1.0 + 1e-9) for w in indexed_chain_weights(n, p, mu)]


def _miscounted_popcounts(n):
    # the error-free string counted as one flip
    return (1,) + tuple(m.bit_count() for m in range(1, 1 << n))


WEIGHT_FAULTS = {
    MODEL_I: ("_chain_weights", _scaled_chain_weights),
    MODEL_II: ("_popcounts", _miscounted_popcounts),
}


@pytest.mark.parametrize("model", [MODEL_I, MODEL_II])
def test_weight_sum_check_can_fail(monkeypatch, capsys, model):
    # a builder whose weights miss 1 still builds its channel; the
    # normalization suite is what reports it, as a verification failure
    monkeypatch.setattr(channels, *WEIGHT_FAULTS[model])
    channel = build_channel(params(0.1, 0.3, 3, model))
    assert abs(channel.total_weight() - 1.0) > 1e-12
    code = main(["verify", "--suite", "kraus-normalization"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("[FAIL] kraus-normalization")

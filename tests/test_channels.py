import json

import numpy as np
import pytest

from corrqec.channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    channel_from_json_dict,
    conditional_probability,
    model1_channel,
    model2_channel,
    phase_flavor,
)
from corrqec.errors import CapacityError, ParameterError

from _oracles import choi_matrix, dense_pauli, model1_weights, model2_weights


def params(p, mu, n, model=MODEL_I, flavor="bit"):
    return ChannelParams(p=p, mu=mu, n=n, flavor=flavor, model=model)


def test_conditional_probability_example():
    assert abs(conditional_probability(0, 0, 0.1, 0.5) - 0.95) < 1e-15


def test_conditional_probability_memoryless_limit():
    for i_k in (0, 1):
        for i_j in (0, 1):
            want = 0.3 if i_k else 0.7
            assert conditional_probability(i_k, i_j, 0.3, 0.0) == want


def test_conditional_probability_perfect_memory():
    for i_k in (0, 1):
        for i_j in (0, 1):
            want = 1.0 if i_k == i_j else 0.0
            assert conditional_probability(i_k, i_j, 0.3, 1.0) == want


def test_conditional_probability_range_errors():
    with pytest.raises(ParameterError):
        conditional_probability(0, 0, 1.5, 0.5)
    with pytest.raises(ParameterError):
        conditional_probability(0, 2, 0.5, 0.5)


def test_model1_two_qubit_table():
    # hand-derived: p00*p0, p10*p0, p01*p1, p11*p1 at p=0.1, mu=0.5
    channel = model1_channel(params(0.1, 0.5, 2))
    weights = {op.x_mask: w for w, op in channel.terms}
    assert abs(weights[0b00] - 0.855) < 1e-12
    assert abs(weights[0b01] - 0.045) < 1e-12  # X1
    assert abs(weights[0b10] - 0.045) < 1e-12  # X2
    assert abs(weights[0b11] - 0.055) < 1e-12  # X1X2
    assert [op.x_mask for _, op in channel.terms] == [0, 1, 2, 3]


def test_model1_memoryless_limit_is_iid():
    channel = model1_channel(params(0.2, 0.0, 3))
    for w, op in channel.terms:
        k = op.x_mask.bit_count()
        assert abs(w - 0.2**k * 0.8 ** (3 - k)) < 1e-15
    assert abs(dict(((op.x_mask, w) for w, op in channel.terms))[0b111] - 0.2**3) < 1e-15


def test_model1_perfect_memory_two_survivors():
    channel = model1_channel(params(0.1, 1.0, 3))
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
                channel = model1_channel(params(p, mu, n))
                for bit in range(n):
                    marg = sum(w for w, op in channel.terms if (op.x_mask >> bit) & 1)
                    assert abs(marg - p) < 1e-12


def test_model2_merge_example():
    channel = model2_channel(params(0.1, 0.5, 2, model=MODEL_II))
    assert len(channel.terms) == 6  # unmerged: 4 iid + 2 all-or-nothing
    merged = channel.merged()
    weights = {op.x_mask: w for w, op in merged.terms}
    assert abs(weights[0b00] - 0.81) < 1e-12
    assert abs(weights[0b01] - 0.045) < 1e-12
    assert abs(weights[0b10] - 0.045) < 1e-12
    assert abs(weights[0b11] - 0.10) < 1e-12
    assert merged.is_merged and not channel.is_merged


def test_model2_perfect_memory():
    channel = model2_channel(params(0.1, 1.0, 3, model=MODEL_II))
    nonzero = {op.x_mask: w for w, op in channel.terms if w > 0}
    assert set(nonzero) == {0b000, 0b111}
    assert abs(nonzero[0b000] - 0.729) < 1e-12
    assert abs(nonzero[0b111] - 0.271) < 1e-12


def test_model2_matches_model1_at_mu_zero():
    for n in (1, 2, 3, 4, 5):
        for p in (0.0, 0.1, 0.5, 1.0):
            m1 = model1_channel(params(p, 0.0, n)).merged()
            m2 = model2_channel(params(p, 0.0, n, model=MODEL_II)).merged()
            assert [op.x_mask for _, op in m1.terms] == [op.x_mask for _, op in m2.terms]
            for (w1, _), (w2, _) in zip(m1.terms, m2.terms):
                assert abs(w1 - w2) < 1e-12


def test_normalization_sweep():
    for n in range(1, 9):
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            for mu in (0.0, 0.3, 0.7, 1.0):
                for build, model in ((model1_channel, MODEL_I), (model2_channel, MODEL_II)):
                    channel = build(params(p, mu, n, model=model))
                    assert abs(channel.total_weight() - 1.0) < 1e-12


def test_dense_cptp_oracle_small_n():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for build, model in ((model1_channel, MODEL_I), (model2_channel, MODEL_II)):
            p, mu = float(rng.uniform()), float(rng.uniform())
            channel = build(params(p, mu, n, model=model))
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
    channel = model1_channel(params(p, mu, n))
    got = {op.x_mask: w for w, op in channel.terms}
    for bits in range(1 << n):
        b = [(bits >> k) & 1 for k in range(n)]
        w = p if b[0] else 1 - p
        for k in range(1, n):
            w *= (1 - mu) * (p if b[k] else 1 - p) + (mu if b[k] == b[k - 1] else 0.0)
        assert abs(got[bits] - w) < 1e-15


def test_phase_flavor_single_qubit():
    channel = model1_channel(params(0.1, 0.0, 1))
    flipped = phase_flavor(channel)
    weights = {(op.x_mask, op.z_mask): w for w, op in flipped.terms}
    assert abs(weights[(0, 0)] - 0.9) < 1e-15
    assert abs(weights[(0, 1)] - 0.1) < 1e-15
    assert flipped.flavor == "phase"


def test_phase_flavor_identity_channel_unchanged():
    channel = model1_channel(params(0.0, 0.3, 2))
    flipped = phase_flavor(channel)
    assert sum(w for w, op in flipped.terms if op.is_identity) == pytest.approx(1.0)


def test_phase_flavor_preserves_weights():
    channel = model1_channel(params(0.1, 0.5, 3))
    flipped = phase_flavor(channel)
    for (w1, op1), (w2, op2) in zip(channel.terms, flipped.terms):
        assert w1 == w2
        assert op2.z_mask == op1.x_mask and op2.x_mask == 0
    again = phase_flavor(flipped)
    assert [op.x_mask for _, op in again.terms] == [op.x_mask for _, op in channel.terms]


def test_phase_flavor_built_directly():
    direct = model1_channel(params(0.1, 0.5, 3, flavor="phase"))
    conjugated = phase_flavor(model1_channel(params(0.1, 0.5, 3)))
    assert [(w, op.z_mask) for w, op in direct.terms] == [
        (w, op.z_mask) for w, op in conjugated.terms
    ]


def test_json_roundtrip():
    channel = model2_channel(params(0.1, 0.5, 3, model=MODEL_II))
    doc = json.loads(json.dumps(channel.to_json_dict()))
    back = channel_from_json_dict(doc)
    assert back.n == channel.n and back.model == channel.model
    assert len(back.terms) == len(channel.terms)
    for (w1, op1), (w2, op2) in zip(channel.terms, back.terms):
        assert abs(w1 - w2) < 1e-15 and op1 == op2


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


def test_builders_check_model_field():
    with pytest.raises(ParameterError):
        model1_channel(params(0.1, 0.5, 2, model=MODEL_II))
    with pytest.raises(ParameterError):
        model2_channel(params(0.1, 0.5, 2, model=MODEL_I))


def test_operators_dedupes_but_terms_do_not():
    channel = model2_channel(params(0.2, 0.7, 2, model=MODEL_II))
    assert len(channel.terms) == 6
    assert len(channel.operators()) == 4


def test_merged_is_sorted_and_normalized():
    channel = model2_channel(params(0.3, 0.4, 3, model=MODEL_II)).merged()
    masks = [op.x_mask for _, op in channel.terms]
    assert masks == sorted(masks)
    assert abs(channel.total_weight() - 1.0) < 1e-12


WEIGHT_EDGE_VALUES = (0.0, 1.0, 5e-324, 1e-300, 1.0 - 2**-53, 1.0 / 3.0, 0.1, 0.9)


def test_weights_are_bit_identical_to_per_mask_loops():
    for n in range(1, 9):
        for p in WEIGHT_EDGE_VALUES:
            for mu in WEIGHT_EDGE_VALUES:
                for model, build, reference in (
                    (MODEL_I, model1_channel, model1_weights),
                    (MODEL_II, model2_channel, model2_weights),
                ):
                    got = [w for w, _ in build(params(p, mu, n, model)).terms]
                    want = reference(n, p, mu)
                    assert [w.hex() for w in got] == [w.hex() for w in want], (model, n, p, mu)

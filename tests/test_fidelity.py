import dataclasses

import numpy as np
import pytest

from _oracles import per_point_fidelity, per_row_dense_fidelity
from corrqec import fidelity

from corrqec.channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    build_channel,
    model1_channel,
    model2_channel,
)
from corrqec.errors import (
    CapacityError,
    ContractViolationError,
    ParameterError,
    UnsupportedPairError,
)
from corrqec.fidelity import (
    closed_form,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    entanglement_fidelity_unencoded,
    evaluate,
    failure_probability,
    has_closed_form,
    threshold_mu,
)
from corrqec.recovery import RecoverySet
from corrqec.schemes import scheme_recovery


def channel(model, n, p, mu, flavor="bit"):
    return build_channel(ChannelParams(p=p, mu=mu, n=n, flavor=flavor, model=model))


def test_bit3_memoryless_point():
    r = evaluate("bit3", MODEL_I, 0.0, 0.1)
    assert abs(r.f_numeric - 0.972) < 1e-12  # 2p^3 - 3p^2 + 1 at p = 0.1


def test_bit3_model1_frozen_interior_point():
    # hand-derived from the conditional-probability chain at p=0.1, mu=0.5:
    # correctable weights 0.81225 + 0.04275 + 0.02025 + 0.04275 = 0.918
    r = evaluate("bit3", MODEL_I, 0.5, 0.1)
    assert abs(r.f_numeric - 0.918) < 1e-12


def test_dfs_perfect_memory_is_noiseless():
    for model in (MODEL_I, MODEL_II):
        for p in (0.1, 0.37, 0.9):
            assert abs(evaluate("dfs2", model, 1.0, p).f_numeric - 1.0) < 1e-12


def test_concat_model2_perfect_memory():
    assert abs(evaluate("concat6", MODEL_II, 1.0, 0.1).f_numeric - 1.0) < 1e-12


def test_concat_model2_half_memory_value():
    r = evaluate("concat6", MODEL_II, 0.5, 0.1)
    assert abs(r.f_numeric - 0.972784) < 1e-12
    assert abs(r.f_closed_form - 0.972784) < 1e-12


def test_unencoded_fidelity():
    assert abs(entanglement_fidelity_unencoded(channel(MODEL_I, 1, 0.1, 0.0)) - 0.9) < 1e-15
    assert entanglement_fidelity_unencoded(channel(MODEL_I, 2, 0.0, 0.5)) == 1.0
    got = entanglement_fidelity_unencoded(channel(MODEL_I, 2, 0.1, 0.5))
    assert abs(got - 0.855) < 1e-12  # only the identity term contributes


def test_closed_form_bit3_collapses_at_full_memory():
    for p in np.linspace(0, 1, 11):
        assert abs(closed_form("bit3", MODEL_I, 1.0, float(p)) - (1 - p)) < 1e-12


def test_closed_form_dfs_value():
    assert abs(closed_form("dfs2", MODEL_I, 0.5, 0.1) - 0.91) < 1e-12


def test_closed_form_model_agreement_for_dfs():
    for mu in np.linspace(0, 1, 7):
        for p in np.linspace(0, 1, 7):
            a = closed_form("dfs2", MODEL_I, float(mu), float(p))
            b = closed_form("dfs2", MODEL_II, float(mu), float(p))
            assert a == b


def test_closed_form_unsupported_pairs():
    assert not has_closed_form("unencoded", MODEL_I)
    with pytest.raises(UnsupportedPairError):
        closed_form("unencoded", MODEL_I, 0.5, 0.1)
    with pytest.raises(ParameterError):
        closed_form("nope", MODEL_I, 0.5, 0.1)
    with pytest.raises(ParameterError):
        closed_form("bit3", MODEL_I, 1.5, 0.1)


def test_closed_form_aliases_follow_base_scheme():
    assert has_closed_form("phase3", MODEL_II)
    assert closed_form("phase3", MODEL_II, 0.3, 0.2) == closed_form("bit3", MODEL_II, 0.3, 0.2)


def test_numeric_matches_closed_forms_on_grid():
    grid = np.linspace(0.0, 1.0, 7)
    for scheme in ("bit3", "dfs2", "concat6"):
        for model in (MODEL_I, MODEL_II):
            for mu in grid:
                for p in grid:
                    r = evaluate(scheme, model, float(mu), float(p))
                    assert abs(r.f_numeric - r.f_closed_form) < 1e-10


def test_dense_oracle_agrees_with_sparse():
    code, rs = scheme_recovery("bit3", "bit")
    ch = channel(MODEL_I, 3, 0.2, 0.3)
    sparse = entanglement_fidelity_corrected(code, ch, rs)
    dense = dense_oracle_fidelity(code, ch, rs)
    assert abs(sparse - dense) < 1e-10


def test_dense_oracle_identity_channel():
    code, rs = scheme_recovery("bit3", "bit")
    ch = channel(MODEL_I, 3, 0.0, 0.0)
    assert abs(dense_oracle_fidelity(code, ch, rs) - 1.0) < 1e-12


def test_dense_oracle_concat_matches_polynomial():
    code, rs = scheme_recovery("concat6", "bit")
    ch = channel(MODEL_II, 6, 0.1, 0.5)
    assert abs(dense_oracle_fidelity(code, ch, rs) - 0.972784) < 1e-10


def test_dense_oracle_capacity_limit():
    from corrqec.codes import QuantumCode
    from corrqec.pauli import basis_state

    big = QuantumCode(7, basis_state(7, 0), basis_state(7, 1), "big")
    _, rs = scheme_recovery("bit3", "bit")
    with pytest.raises(CapacityError):
        dense_oracle_fidelity(big, channel(MODEL_I, 3, 0.1, 0.1), rs)


def test_dense_oracle_matches_per_row_loop_on_concat6():
    code, rs = scheme_recovery("concat6", "bit")
    for model in (MODEL_I, MODEL_II):
        for p, mu in ((0.1, 0.5), (0.37, 0.91), (1.0 / 3.0, 0.0), (0.9, 1.0), (0.0, 0.2)):
            ch = channel(model, 6, p, mu)
            got = dense_oracle_fidelity(code, ch, rs)
            assert abs(got - per_row_dense_fidelity(code, ch, rs)) <= 1e-14, (model, p, mu)


def test_dense_oracle_rejects_a_code_other_than_the_recovery_sets():
    code_b, rs_b = scheme_recovery("bit3", "bit")
    code_p, _ = scheme_recovery("bit3", "phase")
    ch = channel(MODEL_I, 3, 0.1, 0.3)
    with pytest.raises(ParameterError):
        dense_oracle_fidelity(code_p, ch, rs_b)
    with pytest.raises(ParameterError):
        dense_oracle_fidelity(dataclasses.replace(code_b), ch, rs_b)


def test_complement_terms_have_zero_trace():
    code, rs = scheme_recovery("dfs2", "bit")
    assert rs.complement
    ch = channel(MODEL_I, 2, 0.3, 0.4)
    from corrqec.pauli import apply_to_state

    for _, op in ch.terms:
        y0 = apply_to_state(op, code.logical_zero)
        y1 = apply_to_state(op, code.logical_one)
        t = sum(
            code.logical_zero.inner(r) * r.inner(y0)
            + code.logical_one.inner(r) * r.inner(y1)
            for r in rs.complement
        )
        assert abs(t) < 1e-14


def test_merged_decomposition_gives_identical_fidelity():
    # adding weights of identical Paulis leaves sum_k w_k |tr(.)|^2 unchanged,
    # so the merged view must agree with the canonical unmerged list
    for scheme in ("bit3", "dfs2", "concat6"):
        code, rs = scheme_recovery(scheme, "bit")
        ch = channel(MODEL_II, code.n, 0.2, 0.6)
        unmerged = entanglement_fidelity_corrected(code, ch, rs)
        merged = entanglement_fidelity_corrected(code, ch.merged(), rs)
        assert abs(unmerged - merged) < 1e-12


def test_fidelity_bounds_and_failure_prob():
    grid = np.linspace(0.0, 1.0, 5)
    for scheme in ("bit3", "dfs2", "concat6", "unencoded"):
        for model in (MODEL_I, MODEL_II):
            for mu in grid:
                for p in grid:
                    r = evaluate(scheme, model, float(mu), float(p))
                    assert -1e-12 <= r.f_numeric <= 1 + 1e-12
                    assert r.failure_prob == 1.0 - r.f_numeric


def test_flavor_symmetry_of_the_actual_phase_pipeline():
    # phase-flavor channel + phase-flavor code + phase-flavor recovery, run
    # through the corrected-fidelity sum directly, agrees with the bit flavor
    for scheme in ("bit3", "dfs2", "concat6"):
        for model in (MODEL_I, MODEL_II):
            for mu, p in ((0.0, 0.3), (0.4, 0.2), (0.8, 0.55), (1.0, 0.1)):
                code_b, rs_b = scheme_recovery(scheme, "bit")
                code_p, rs_p = scheme_recovery(scheme, "phase")
                f_bit = entanglement_fidelity_corrected(
                    code_b, channel(model, code_b.n, p, mu, "bit"), rs_b
                )
                f_phase = entanglement_fidelity_corrected(
                    code_p, channel(model, code_p.n, p, mu, "phase"), rs_p
                )
                assert abs(f_bit - f_phase) < 1e-12
    for model in (MODEL_I, MODEL_II):
        a = entanglement_fidelity_unencoded(channel(model, 1, 0.2, 0.4, "bit"))
        b = entanglement_fidelity_unencoded(channel(model, 1, 0.2, 0.4, "phase"))
        assert abs(a - b) < 1e-12


def test_phase_alias_schemes_evaluate():
    a = evaluate("phase3", MODEL_I, 0.3, 0.2)
    b = evaluate("bit3", MODEL_I, 0.3, 0.2, flavor="phase")
    assert abs(a.f_numeric - b.f_numeric) < 1e-15
    with pytest.raises(ParameterError):
        evaluate("phase3", MODEL_I, 0.3, 0.2, flavor="bit")


def test_threshold_dfs_model2():
    tp = threshold_mu("dfs2", MODEL_II, 0.1)
    assert tp.branch == "above"
    assert abs(tp.mu_star - 4.0 / 9.0) < 1e-6
    assert len(tp.regions) == 1
    lo, hi = tp.regions[0]
    assert abs(lo - 4.0 / 9.0) < 1e-6 and hi == 1.0
    # crossing really sits on the boundary
    assert abs(failure_probability("dfs2", MODEL_II, tp.mu_star, 0.1) - 0.1) < 1e-10


def test_threshold_bit3_model2():
    tp = threshold_mu("bit3", MODEL_II, 0.1)
    assert tp.branch == "below"
    assert abs(tp.mu_star - 0.2963) < 1e-4
    assert abs(failure_probability("bit3", MODEL_II, tp.mu_star, 0.1) - 0.1) < 1e-10


def test_threshold_concat_model2_effective_everywhere():
    tp = threshold_mu("concat6", MODEL_II, 0.1)
    assert tp.branch == "all"
    assert tp.mu_star is None
    assert tp.regions == ((0.0, 1.0),)
    for mu in np.linspace(0, 1, 11):
        p_fail = evaluate("concat6", MODEL_II, float(mu), 0.1).failure_prob
        assert abs(p_fail - 0.054432 * (1 - mu)) < 1e-10


def test_threshold_bit3_model1_effective_for_small_p():
    tp = threshold_mu("bit3", MODEL_I, 0.1)
    assert tp.branch == "all"
    assert tp.regions == ((0.0, 1.0),)


def test_threshold_bit3_model1_never_effective_for_large_p():
    tp = threshold_mu("bit3", MODEL_I, 0.7)
    assert tp.branch == "none"
    assert tp.regions == ()


def test_threshold_concat_model1_has_dead_band():
    tp = threshold_mu("concat6", MODEL_I, 0.1)
    assert tp.branch == "outside"
    assert len(tp.regions) == 2
    (lo1, hi1), (lo2, hi2) = tp.regions
    assert lo1 == 0.0 and hi2 == 1.0
    assert hi1 < lo2
    # boundaries solve failure prob = p
    for mu_star in (hi1, lo2):
        assert abs(failure_probability("concat6", MODEL_I, mu_star, 0.1) - 0.1) < 1e-10


def test_threshold_crossing_on_a_grid_point():
    # at p = 0.25 the crossing is exactly 1/3 = 341/1023, a point of the
    # default 1024-point scan grid; it must still be reported as mu_star
    tp = threshold_mu("dfs2", MODEL_II, 0.25)
    assert tp.branch == "above"
    assert tp.mu_star is not None
    assert abs(tp.mu_star - 1.0 / 3.0) < 1e-10
    assert abs(failure_probability("dfs2", MODEL_II, tp.mu_star, 0.25) - 0.25) < 1e-10


def test_threshold_numeric_fallback_unencoded():
    tp = threshold_mu("unencoded", MODEL_I, 0.1)
    assert tp.branch == "none"  # failure prob equals p exactly, never below


def test_threshold_p_range_validation():
    with pytest.raises(ParameterError):
        threshold_mu("bit3", MODEL_I, 0.0)
    with pytest.raises(ParameterError):
        threshold_mu("bit3", MODEL_I, 1.0)


def test_corrected_fidelity_dimension_mismatch():
    code, rs = scheme_recovery("bit3", "bit")
    with pytest.raises(Exception):
        entanglement_fidelity_corrected(code, channel(MODEL_I, 2, 0.1, 0.1), rs)


def test_model_builders_disagree_only_through_memory():
    # at mu = 0 the two models are the same channel, so fidelities coincide
    for scheme in ("bit3", "dfs2", "concat6"):
        a = evaluate(scheme, MODEL_I, 0.0, 0.3).f_numeric
        b = evaluate(scheme, MODEL_II, 0.0, 0.3).f_numeric
        assert abs(a - b) < 1e-12


def test_model1_channel_term_count_feeds_fidelity():
    # 64 Kraus terms; 32 correctable operators grouped into 16 isometries
    code, rs = scheme_recovery("concat6", "bit")
    ch = model1_channel(ChannelParams(p=0.1, mu=0.5, n=6, model=MODEL_I))
    assert len(ch.terms) == 64
    assert len(rs.ops) == 16
    assert sum(len(op.members) for op in rs.ops) == 32
    ch2 = model2_channel(ChannelParams(p=0.1, mu=0.5, n=6, model=MODEL_II))
    assert len(ch2.terms) == 66
    f = entanglement_fidelity_corrected(code, ch2, rs)
    assert abs(f - closed_form("concat6", MODEL_II, 0.5, 0.1)) < 1e-10


EDGE_VALUES = (0.0, 1.0, 5e-324, 1e-8, 1.0 / 3.0, 0.9)


def test_memoized_kernel_is_bit_identical_to_per_point_loop():
    for scheme in ("bit3", "dfs2", "concat6"):
        for flavor in ("bit", "phase"):
            code, rs = scheme_recovery(scheme, flavor)
            for model in (MODEL_I, MODEL_II):
                for p in EDGE_VALUES:
                    for mu in EDGE_VALUES:
                        ch = channel(model, code.n, p, mu, flavor)
                        # only model II repeats Paulis, so only it has a distinct merged view
                        views = (ch, ch.merged()) if model == MODEL_II else (ch,)
                        for view in views:
                            got = entanglement_fidelity_corrected(code, view, rs)
                            assert got == per_point_fidelity(code, view, rs), (
                                scheme, flavor, model, p, mu, view.is_merged
                            )


def test_restricted_traces_are_computed_once_per_pauli(monkeypatch):
    code, rs = scheme_recovery("concat6", "bit")
    fresh = RecoverySet(code, rs.ops, rs.complement)
    fills = []
    original = fidelity._squared_restricted_traces

    def counting(rs_arg, op):
        fills.append((op.x_mask, op.z_mask, op.phase))
        return original(rs_arg, op)

    monkeypatch.setattr(fidelity, "_squared_restricted_traces", counting)
    for model in (MODEL_I, MODEL_II):
        for p, mu in ((0.1, 0.0), (0.3, 0.7), (0.9, 1.0)):
            entanglement_fidelity_corrected(code, channel(model, 6, p, mu), fresh)
    assert len(fills) == len(set(fills)) == 64
    assert set(fresh.restricted_traces) == set(fills)


def test_corrupted_complement_still_raises():
    code, rs = scheme_recovery("dfs2", "bit")
    # a complement vector inside the code space has a nonzero restricted trace
    broken = RecoverySet(code, rs.ops, (code.logical_zero,) + rs.complement[1:])
    with pytest.raises(ContractViolationError):
        entanglement_fidelity_corrected(code, channel(MODEL_I, 2, 0.1, 0.5), broken)
    with pytest.raises(ContractViolationError):
        per_point_fidelity(code, channel(MODEL_I, 2, 0.1, 0.5), broken)


def test_kernel_rejects_a_code_other_than_the_recovery_sets():
    code_b, rs_b = scheme_recovery("bit3", "bit")
    code_p, rs_p = scheme_recovery("bit3", "phase")
    ch = channel(MODEL_I, 3, 0.1, 0.5)
    with pytest.raises(ParameterError):
        entanglement_fidelity_corrected(code_p, ch, rs_b)
    with pytest.raises(ParameterError):
        entanglement_fidelity_corrected(dataclasses.replace(code_b), ch, rs_b)

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    per_call_dense_oracle_fidelity,
    per_point_fidelity,
    per_row_dense_fidelity,
    phase_flavor,
    scan_threshold_mu,
)
from corrqec import fidelity

from corrqec.channels import (
    MODEL_I,
    MODEL_II,
    ChannelParams,
    NoiseChannel,
    build_channel,
)
from corrqec.errors import (
    CapacityError,
    ContractViolationError,
    ParameterError,
)
from corrqec.fidelity import (
    closed_form,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    entanglement_fidelity_unencoded,
    evaluate,
    threshold_mu,
)
from corrqec.pauli import PauliString, SparseState
from corrqec.recovery import RecoverySet, build_recovery, correctable_set
from corrqec.schemes import BASE_SCHEMES, scheme_recovery


def channel(model, n, p, mu, flavor="bit"):
    return build_channel(ChannelParams(p=p, mu=mu, n=n, flavor=flavor, model=model))


def correctable_members(base, flavor="bit"):
    """Code plus the correctable set, read from the cached recovery's operators."""
    code, rs = scheme_recovery(base, flavor)
    return code, [op for rop in rs.ops for op in rop.members]


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


@pytest.mark.parametrize("model", [True, 2.0])
def test_a_model_that_is_not_an_int_is_refused(model):
    # each equals a model number, so the cached derivations would answer
    # for it if it reached them unchecked
    for m in (MODEL_I, MODEL_II):
        threshold_mu("bit3", m, 0.1)
    calls = (
        lambda: closed_form("bit3", model, 0.5, 0.1),
        lambda: evaluate("bit3", model, 0.5, 0.1),
        lambda: threshold_mu("bit3", model, 0.1),
    )
    for call in calls:
        with pytest.raises(ParameterError, match=f"^model must be 1 or 2, got {model!r}$"):
            call()


def test_closed_form_model_agreement_for_dfs():
    for mu in np.linspace(0, 1, 7):
        for p in np.linspace(0, 1, 7):
            a = closed_form("dfs2", MODEL_I, float(mu), float(p))
            b = closed_form("dfs2", MODEL_II, float(mu), float(p))
            assert a == b


def test_closed_form_unsupported_pairs():
    assert closed_form("unencoded", MODEL_I, 0.5, 0.1) is None
    assert closed_form("unencoded", MODEL_II, 0.5, 0.1) is None
    for scheme, model in (("bit3", 3), ("unencoded", 7), ("concat6", 0)):
        with pytest.raises(ParameterError, match=f"model must be 1 or 2, got {model}"):
            closed_form(scheme, model, 0.5, 0.1)
    with pytest.raises(ParameterError):
        closed_form("nope", MODEL_I, 0.5, 0.1)
    for scheme in ("bit3", "unencoded"):
        with pytest.raises(ParameterError, match="must lie in"):
            closed_form(scheme, MODEL_I, 1.5, 0.1)
        with pytest.raises(ParameterError, match="must lie in"):
            closed_form(scheme, MODEL_II, 0.5, -3.0)


def test_closed_form_aliases_follow_base_scheme():
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
    _, rs = scheme_recovery("bit3", "bit")
    ch = channel(MODEL_I, 3, 0.2, 0.3)
    sparse = entanglement_fidelity_corrected(ch, rs)
    dense = dense_oracle_fidelity(ch, rs)
    assert abs(sparse - dense) < 1e-10


def test_dense_oracle_identity_channel():
    _, rs = scheme_recovery("bit3", "bit")
    ch = channel(MODEL_I, 3, 0.0, 0.0)
    assert abs(dense_oracle_fidelity(ch, rs) - 1.0) < 1e-12


def test_dense_oracle_concat_matches_polynomial():
    _, rs = scheme_recovery("concat6", "bit")
    ch = channel(MODEL_II, 6, 0.1, 0.5)
    assert abs(dense_oracle_fidelity(ch, rs) - 0.972784) < 1e-10


def test_dense_oracle_capacity_limit():
    from corrqec.codes import QuantumCode
    from corrqec.pauli import basis_state

    big = QuantumCode(7, basis_state(7, 0), basis_state(7, 1), "big")
    with pytest.raises(CapacityError):
        dense_oracle_fidelity(channel(MODEL_I, 7, 0.1, 0.1), RecoverySet(big, (), ()))


def test_dense_oracle_matches_per_row_loop_on_concat6():
    _, rs = scheme_recovery("concat6", "bit")
    for model in (MODEL_I, MODEL_II):
        for p, mu in ((0.1, 0.5), (0.37, 0.91), (1.0 / 3.0, 0.0), (0.9, 1.0), (0.0, 0.2)):
            ch = channel(model, 6, p, mu)
            got = dense_oracle_fidelity(ch, rs)
            assert abs(got - per_row_dense_fidelity(ch, rs)) <= 1e-14, (model, p, mu)


def test_cached_dense_oracle_equals_the_per_call_build():
    grid = (0.0, 0.1, 0.37, 1.0)
    for scheme in ("bit3", "dfs2", "concat6"):
        code, rs = scheme_recovery(scheme, "bit")
        for model in (MODEL_I, MODEL_II):
            # a fresh set per model, so that the first call builds the rows
            fresh = RecoverySet(code, rs.ops, rs.complement)
            for p in grid:
                for mu in grid:
                    ch = channel(model, code.n, p, mu)
                    got = dense_oracle_fidelity(ch, fresh)
                    assert got == per_call_dense_oracle_fidelity(ch, rs), (scheme, model, p, mu)
            assert not fresh.projected_rows.flags.writeable


def test_dense_oracle_builds_rows_once_per_recovery_set(monkeypatch):
    builds = []
    original = fidelity.recovery_dense

    def counting(rs_arg):
        builds.append(rs_arg)
        return original(rs_arg)

    densified = Counter()
    original_dense = PauliString.dense

    def counting_dense(op):
        densified[op] += 1
        return original_dense(op)

    monkeypatch.setattr(fidelity, "recovery_dense", counting)
    monkeypatch.setattr(PauliString, "dense", counting_dense)
    code, correctable = correctable_members("concat6")
    first = build_recovery(code, correctable)
    assert first.dense_squares == {}
    seen = set()
    for p, mu in ((0.1, 0.0), (0.3, 0.7), (0.9, 1.0)):
        for model in (MODEL_I, MODEL_II):
            ch = channel(model, 6, p, mu)
            seen.update(ch.paulis)
            dense_oracle_fidelity(ch, first)
    assert len(builds) == 1 and builds[0] is first
    # model II repeats two of model I's Paulis in its term list
    assert set(densified) == seen == set(first.dense_squares)
    assert set(densified.values()) == {1}
    second = build_recovery(code, correctable)
    assert second.projected_rows is None and second.dense_squares == {}
    densified.clear()
    ch = channel(MODEL_I, 6, 0.2, 0.4)
    dense_oracle_fidelity(ch, second)
    assert len(builds) == 2 and builds[1] is second
    assert second.projected_rows is not first.projected_rows
    assert set(densified) == set(ch.paulis) == set(second.dense_squares)
    assert set(densified.values()) == {1}


def test_dense_oracle_memo_keys_the_whole_pauli():
    # X1, Y1, Z1 and X1Z1 at other phases share masks pairwise but not all
    # three of (x_mask, z_mask, phase); a memo keyed by less mixes them up
    def hand_built(n, masks):
        paulis = tuple(PauliString(n, x, z, phase) for x, z, phase in masks)
        weights = [0.5 / (k + 1) for k in range(len(paulis))]
        return NoiseChannel(n, paulis, weights, shared=False)

    small = [(0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0), (1, 1, 2), (1, 1, 0), (1, 0, 3)]
    cases = [
        ("bit3", "bit", [hand_built(3, small + [(1, 0, 0), (3, 2, 0), (0, 7, 0)])]),
        ("concat6", "bit", [hand_built(6, small + [(9, 0, 0), (9, 1, 0), (0, 9, 0), (9, 9, 3)])]),
    ]
    for scheme in ("bit3", "dfs2", "concat6"):
        n = scheme_recovery(scheme, "phase")[0].n
        # every phase-flavor Pauli is a Z-string, so all share x_mask 0
        cases.append((scheme, "phase", [
            channel(model, n, p, mu, "phase")
            for model in (MODEL_I, MODEL_II) for p in (0.1, 0.9) for mu in (0.0, 0.6)
        ]))
    for scheme, flavor, channels in cases:
        code, rs = scheme_recovery(scheme, flavor)
        fresh = RecoverySet(code, rs.ops, rs.complement)
        expected = [per_call_dense_oracle_fidelity(ch, rs) for ch in channels]
        for warm in (False, True):
            for ch, want in zip(channels, expected):
                assert dense_oracle_fidelity(ch, fresh) == want, (scheme, flavor, warm)
        assert set(fresh.dense_squares) == {op for ch in channels for op in ch.paulis}


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
        unmerged = entanglement_fidelity_corrected(ch, rs)
        merged = entanglement_fidelity_corrected(ch.merged(), rs)
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
                _, rs_b = scheme_recovery(scheme, "bit")
                _, rs_p = scheme_recovery(scheme, "phase")
                f_bit = entanglement_fidelity_corrected(
                    channel(model, rs_b.code.n, p, mu, "bit"), rs_b
                )
                f_phase = entanglement_fidelity_corrected(
                    channel(model, rs_p.code.n, p, mu, "phase"), rs_p
                )
                assert abs(f_bit - f_phase) < 1e-12
    for model in (MODEL_I, MODEL_II):
        a = entanglement_fidelity_unencoded(channel(model, 1, 0.2, 0.4, "bit"))
        b = entanglement_fidelity_unencoded(channel(model, 1, 0.2, 0.4, "phase"))
        assert abs(a - b) < 1e-12


def test_phase_alias_schemes_evaluate():
    # the flavor conflict of an alias is refused by the CLI (test_cli)
    a = evaluate("phase3", MODEL_I, 0.3, 0.2)
    b = evaluate("bit3", MODEL_I, 0.3, 0.2)
    assert a.f_numeric == b.f_numeric
    assert a.f_closed_form == b.f_closed_form
    assert a.scheme == "phase3"


def test_threshold_dfs_model2():
    tp = threshold_mu("dfs2", MODEL_II, 0.1)
    assert tp.branch == "above"
    assert abs(tp.mu_star - 4.0 / 9.0) < 1e-6
    assert len(tp.regions) == 1
    lo, hi = tp.regions[0]
    assert abs(lo - 4.0 / 9.0) < 1e-6 and hi == 1.0
    # crossing really sits on the boundary
    assert abs(1.0 - closed_form("dfs2", MODEL_II, tp.mu_star, 0.1) - 0.1) < 1e-10


def test_threshold_bit3_model2():
    tp = threshold_mu("bit3", MODEL_II, 0.1)
    assert tp.branch == "below"
    assert abs(tp.mu_star - 0.2963) < 1e-4
    assert abs(1.0 - closed_form("bit3", MODEL_II, tp.mu_star, 0.1) - 0.1) < 1e-10


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
        assert abs(1.0 - closed_form("concat6", MODEL_I, mu_star, 0.1) - 0.1) < 1e-10


def test_threshold_crossing_on_a_grid_point():
    # at p = 0.25 the crossing is exactly 1/3 = 341/1023, a point of the
    # 1024-point reference scan grid; it must still be reported as mu_star
    tp = threshold_mu("dfs2", MODEL_II, 0.25)
    assert tp.branch == "above"
    assert tp.mu_star is not None
    assert abs(tp.mu_star - 1.0 / 3.0) < 1e-10
    assert abs(1.0 - closed_form("dfs2", MODEL_II, tp.mu_star, 0.25) - 0.25) < 1e-10


def test_threshold_numeric_fallback_unencoded():
    for model in (MODEL_I, MODEL_II):
        tp = threshold_mu("unencoded", model, 0.1)
        # failure prob equals p exactly, never below
        assert (tp.branch, tp.mu_star, tp.regions) == ("none", None, ())


def _derived(rows, mu, p):
    return sum(mu**i * sum(c * p**j for j, c in enumerate(row)) for i, row in enumerate(rows))


def test_derived_polynomials_equal_the_published_closed_forms():
    # degree <= 6 in mu and <= 7 in p, above every published polynomial, is
    # fixed by its values on a 7 x 8 grid, so agreement there is identity
    mus = [Fraction(i, 6) for i in range(7)]
    ps = [Fraction(j, 7) for j in range(8)]
    for base, model in fidelity._CLOSED_FORMS:
        rows = fidelity._fidelity_polynomial(base, model)
        assert len(rows) <= 7 and max(len(row) for row in rows) <= 8
        published = fidelity._CLOSED_FORMS[base, model]
        for mu in mus:
            for p in ps:
                assert _derived(rows, mu, p) == published(mu, p), (base, model, mu, p)


def test_recovery_members_partition_the_correctable_set():
    # the derivation sums the weights of the correctable set, which are the
    # error strings the recovery operators map back
    for base in ("bit3", "dfs2", "concat6"):
        code, members = correctable_members(base)
        correctable = correctable_set(code, channel(MODEL_I, code.n, 0.5, 0.5).paulis)
        assert len(members) == len(correctable) == len(set(correctable))
        assert set(members) == set(correctable)


def test_kernel_is_the_weight_of_the_correctable_set():
    # the premise of the derived polynomials, in both flavors: the fidelity
    # is the builder's weight summed over the correctable Paulis, matched by
    # value, so the phase flavor's Z-strings count as the bit flavor's X-strings
    grid = (0.0, 0.1, 0.37, 0.5, 1.0)
    for base in BASE_SCHEMES:
        for flavor in ("bit", "phase"):
            code, rs = scheme_recovery(base, flavor)
            correctable = [op for rop in rs.ops for op in rop.members]
            kept = set(correctable)
            flipped = [op.z_mask if flavor == "phase" else op.x_mask for op in correctable]
            assert any(flipped) == (base != "unencoded"), (base, flavor)
            for model in (MODEL_I, MODEL_II):
                for p in grid:
                    for mu in grid:
                        ch = channel(model, code.n, p, mu, flavor)
                        want = sum(w for w, op in ch.terms if op in kept)
                        got = entanglement_fidelity_corrected(ch, rs)
                        assert abs(got - want) <= 1e-14, (base, flavor, model, p, mu)


def test_unencoded_derives_one_minus_p():
    for model in (MODEL_I, MODEL_II):
        assert fidelity._fidelity_polynomial("unencoded", model) == ((1, -1),)


# p values for the exact-root tests: 1e-13 was reported as "none" by a scan
# whose zero band was 1e-12 wide
EXACT_ROOT_P = (
    1e-13, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.123, 0.15, 0.2, 0.25,
    0.3, 1.0 / 3.0, 0.35, 0.4, 0.42, 0.45, 0.47, 0.49, 0.499, 0.4999,
)


def test_threshold_linear_roots_are_correctly_rounded():
    # where 1 - F - p is linear in mu its root is a rational function of p;
    # float(Fraction) rounds it correctly
    for p in EXACT_ROOT_P:
        q = Fraction(p)
        dfs_root = float(1 - 1 / (2 * (1 - q)))
        for model in (MODEL_I, MODEL_II):
            tp = threshold_mu("dfs2", model, p)
            assert tp.branch == "above" and tp.mu_star == dfs_root, (model, p)
            assert tp.regions == ((dfs_root, 1.0),)
        bit_root = float((1 - 2 * q) / (3 * (1 - q)))
        tp = threshold_mu("bit3", MODEL_II, p)
        assert tp.branch == "below" and tp.mu_star == bit_root, p
        assert tp.regions == ((0.0, bit_root),)
    # 4/9 and 1/3, the crossings at p = 0.1 and p = 0.25
    assert threshold_mu("dfs2", MODEL_II, 0.1).mu_star == 4 / 9
    assert threshold_mu("dfs2", MODEL_II, 0.25).mu_star == 1 / 3


def test_threshold_tangential_touch_is_no_boundary():
    # bit3 model 1: 1 - F - p = -p(1-p)(1-2p)(1-mu)^2, a double root at mu = 1
    for p in (1e-13, 0.01, 0.1, 0.3, 0.49):
        tp = threshold_mu("bit3", MODEL_I, p)
        assert (tp.branch, tp.mu_star, tp.regions) == ("all", None, ((0.0, 1.0),)), p
    # at p = 1/2 the failure probability equals p for every mu
    tp = threshold_mu("bit3", MODEL_I, 0.5)
    assert (tp.branch, tp.mu_star, tp.regions) == ("none", None, ())


def test_threshold_matches_the_former_scan():
    for scheme in ("dfs2", "bit3", "concat6", "unencoded"):
        for model in (MODEL_I, MODEL_II):
            for p in np.linspace(0.005, 0.495, 40):
                exact = threshold_mu(scheme, model, float(p))
                scan = scan_threshold_mu(scheme, model, float(p))
                where = (scheme, model, float(p))
                assert exact.branch == scan.branch, where
                assert len(exact.regions) == len(scan.regions), where
                assert (exact.mu_star is None) == (scan.mu_star is None), where
                if exact.mu_star is not None:
                    assert abs(exact.mu_star - scan.mu_star) <= 1e-11, where
                for got, ref in zip(exact.regions, scan.regions):
                    assert max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) <= 1e-11, where


def test_threshold_evaluates_no_point(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("evaluate", "closed_form", "build_channel"):
        monkeypatch.setattr(fidelity, name, counted(name, getattr(fidelity, name)))
    # the first call derives the polynomial, and must not evaluate either
    fidelity._fidelity_polynomial.cache_clear()
    for scheme in ("dfs2", "bit3", "concat6", "unencoded"):
        for model in (MODEL_I, MODEL_II):
            threshold_mu(scheme, model, 0.1)
    assert calls == []


def test_threshold_p_range_validation():
    with pytest.raises(ParameterError):
        threshold_mu("bit3", MODEL_I, 0.0)
    with pytest.raises(ParameterError):
        threshold_mu("bit3", MODEL_I, 1.0)


def test_corrected_fidelity_dimension_mismatch():
    _, rs = scheme_recovery("bit3", "bit")
    with pytest.raises(Exception):
        entanglement_fidelity_corrected(channel(MODEL_I, 2, 0.1, 0.1), rs)


def test_model_builders_disagree_only_through_memory():
    # at mu = 0 the two models are the same channel, so fidelities coincide
    for scheme in ("bit3", "dfs2", "concat6"):
        a = evaluate(scheme, MODEL_I, 0.0, 0.3).f_numeric
        b = evaluate(scheme, MODEL_II, 0.0, 0.3).f_numeric
        assert abs(a - b) < 1e-12


def test_model1_channel_term_count_feeds_fidelity():
    # 64 Kraus terms; 32 correctable operators grouped into 16 isometries
    _, rs = scheme_recovery("concat6", "bit")
    ch = channel(MODEL_I, 6, 0.1, 0.5)
    assert len(ch.terms) == 64
    assert len(rs.ops) == 16
    assert sum(len(op.members) for op in rs.ops) == 32
    ch2 = channel(MODEL_II, 6, 0.1, 0.5)
    assert len(ch2.terms) == 66
    f = entanglement_fidelity_corrected(ch2, rs)
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
                        # terms reversed by hand: a table belongs to one Pauli
                        # tuple, not to (n, model)
                        reverse = NoiseChannel(ch.n, ch.paulis[::-1], ch.weights[::-1])
                        views = [ch, reverse]
                        # only model II repeats Paulis, so only it has a distinct merged view
                        if model == MODEL_II:
                            views.append(ch.merged())
                        for view in views:
                            got = entanglement_fidelity_corrected(view, rs)
                            assert got == per_point_fidelity(view, rs), (
                                scheme, flavor, model, p, mu, views.index(view)
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
            entanglement_fidelity_corrected(channel(model, 6, p, mu), fresh)
    assert len(fills) == len(set(fills)) == 64
    assert set(fresh.restricted_traces) == set(fills)
    # one term table per builder's Pauli tuple, both filled from the same memo
    assert len(fresh.term_tables) == 2


def test_corrupted_complement_still_raises():
    code, rs = scheme_recovery("dfs2", "bit")
    # a complement vector inside the code space would give the complement
    # projector a nonzero restricted trace; such a set cannot be built
    with pytest.raises(ContractViolationError):
        RecoverySet(code, rs.ops, (code.logical_zero,) + rs.complement[1:])


def test_kernel_takes_two_inner_products_per_isometry(monkeypatch):
    code, correctable = correctable_members("concat6")
    rs = build_recovery(code, correctable)
    calls = []
    original = SparseState.inner

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(SparseState, "inner", counting)
    ch = channel(MODEL_I, 6, 0.3, 0.4)
    entanglement_fidelity_corrected(ch, rs)
    assert len(rs.restricted_traces) == len(ch.terms) == 64
    # the complement projector is never visited
    assert len(calls) == 64 * 2 * len(rs.ops) == 2048
    # a warm point reads its term table only
    for model in (MODEL_I, MODEL_II):
        entanglement_fidelity_corrected(channel(model, 6, 0.1, 0.9), rs)
    assert len(calls) == 2048


@pytest.mark.parametrize(
    "scheme, sizes",
    [("concat6", ((32, 64), (34, 66))), ("bit3", ((4, 8), (5, 10))), ("dfs2", ((2, 4), (4, 6)))],
)
def test_term_table_holds_only_the_nonzero_squares(scheme, sizes):
    # bit flavor: every Pauli has at most one nonzero square, so a table
    # lists the correctable terms, and model II's repeated identity and full flip
    code, correctable = correctable_members(scheme)
    rs = build_recovery(code, correctable)
    for model, (pairs, terms) in zip((MODEL_I, MODEL_II), sizes):
        ch = channel(model, code.n, 0.2, 0.5)
        entanglement_fidelity_corrected(ch, rs)
        paulis, table = rs.term_tables[id(ch.paulis)]
        assert paulis is ch.paulis and len(paulis) == terms
        assert len(table) == pairs
        assert [i for i, _ in table] == sorted({i for i, _ in table})
        assert all(s != 0.0 for _, s in table)


def test_non_builder_channels_store_no_table():
    # each merged() view or phase-conjugated copy is a new Pauli tuple; keeping a
    # table per tuple would add one table per call
    for scheme in ("concat6", "dfs2"):
        code, rs = scheme_recovery(scheme, "bit")
        ch = channel(MODEL_II, code.n, 0.2, 0.6)
        entanglement_fidelity_corrected(ch, rs)
        tables = len(rs.term_tables)
        views = (ch.merged, lambda: phase_flavor(ch))
        expected = [per_point_fidelity(view(), rs) for view in views]
        for k in range(500):
            for view, want in zip(views, expected):
                assert entanglement_fidelity_corrected(view(), rs) == want, k
        assert len(rs.term_tables) == tables

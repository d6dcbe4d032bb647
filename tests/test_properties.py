"""Property tests over random (mu, p): normalization, fidelity range, flavors,
and codes derived beyond the scheme registry.

Every test is derandomized and keeps no example database, so a run draws
the same examples each time.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec.channels import MODEL_I, MODEL_II, ChannelParams, build_channel
from corrqec.channels import _chain_weights, _flavored_strings, _model2_strings, _model2_weights
from corrqec.checks import CLOSED_FORM_TOL, FLAVOR_TOL, NORMALIZATION_TOL
from corrqec.codes import bitflip3, concatenate, dfs2, hadamard_conjugate_code
from corrqec.fidelity import (
    FidelityResult,
    dense_oracle_fidelity,
    entanglement_fidelity_corrected,
    evaluate,
)
from corrqec.recovery import build_recovery, correctable_set
from corrqec.schemes import BASE_SCHEMES, scheme_recovery
from corrqec.sweep import parse_range, render_fidelity_json

from _oracles import dict_fidelity_json

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=100)

unit = st.floats(min_value=0.0, max_value=1.0)
models = st.sampled_from((MODEL_I, MODEL_II))
flavors = st.sampled_from(("bit", "phase"))
schemes = st.sampled_from(BASE_SCHEMES)


@deterministic
@given(n=st.integers(min_value=1, max_value=8), model=models, flavor=flavors, p=unit, mu=unit)
def test_channel_weights_sum_to_one(n, model, flavor, p, mu):
    channel = build_channel(ChannelParams(p=p, mu=mu, n=n, flavor=flavor, model=model))
    assert abs(channel.total_weight() - 1.0) <= NORMALIZATION_TOL
    assert all(w >= 0.0 for w, _ in channel.terms)


@deterministic
@given(scheme=schemes, model=models, p=unit, mu=unit)
def test_fidelity_is_a_probability_and_matches_the_closed_form(scheme, model, p, mu):
    r = evaluate(scheme, model, mu, p)
    assert -1e-12 <= r.f_numeric <= 1.0 + 1e-12
    if scheme == "unencoded":
        assert r.f_closed_form is None
    else:
        assert abs(r.f_numeric - r.f_closed_form) <= CLOSED_FORM_TOL


@deterministic
@given(scheme=schemes, model=models, p=unit, mu=unit)
def test_bit_and_phase_pipelines_agree(scheme, model, p, mu):
    # each flavor through its own channel and its own recovery set, which is
    # why evaluate needs no flavor argument
    def fidelity(flavor: str) -> float:
        _, rs = scheme_recovery(scheme, flavor)
        params = ChannelParams(p=p, mu=mu, n=rs.code.n, flavor=flavor, model=model)
        return entanglement_fidelity_corrected(build_channel(params), rs)

    assert abs(fidelity("bit") - fidelity("phase")) <= FLAVOR_TOL


@deterministic
@given(ends=st.lists(unit, min_size=2, max_size=2), steps=st.integers(min_value=1, max_value=300))
@example(ends=[0.0, 1.0], steps=101)
@example(ends=[0.3, 0.3], steps=1)
@example(ends=[0.25, 0.25], steps=7)
@example(ends=[0.0, 5e-324], steps=4)  # (hi - lo) / 3 underflows to zero
@example(ends=[0.0, 1e-323], steps=2)
def test_range_grid_equals_numpy_linspace(ends, steps):
    lo, hi = sorted(ends)
    if steps == 1:
        hi = lo
    grid = parse_range(f"{lo!r}:{hi!r}:{steps}")
    want = np.linspace(lo, hi, steps)
    assert len(grid) == steps
    # float.hex also tells -0.0 from 0.0, so the printed tables match too
    assert [x.hex() for x in grid] == [float(x).hex() for x in want]
    assert all(type(x) is float for x in grid)
    assert grid[0] == lo and grid[-1] == hi


finite = st.floats(allow_nan=False, allow_infinity=False)
rows = st.builds(
    FidelityResult,
    mu=unit,
    p=unit,
    scheme=st.sampled_from(BASE_SCHEMES + ("phase3", "dfs2-phase", "concat6-phase")),
    model=models,
    f_numeric=finite,
    f_closed_form=st.none() | finite,
    failure_prob=finite,
)


def _row(scheme, f, closed, failure=None, mu=0.5, p=0.1, model=MODEL_I):
    return FidelityResult(mu, p, scheme, model, f, closed, 1.0 - f if failure is None else failure)


@deterministic
@given(results=st.lists(rows, max_size=8))
@example(results=[])
@example(results=[_row("unencoded", 0.9, None), _row("unencoded", 1.0, None, mu=1.0, p=0.0)])
@example(results=[_row("bit3", 1.0 + 1.1e-16, 1.0, failure=-1.1e-16)])
@example(results=[
    _row("dfs2", 0.0, 0.0, mu=0.0, p=1.0, model=MODEL_II),
    _row("dfs2", 1.0, 1.0, mu=1.0, p=0.0),
    _row("bit3", 5e-324, 1e-05, mu=5e-324, p=1e-05),
])
@example(results=[_row("concat6", 0.99999999999999, 0.9999999999999, mu=0.1 + 0.2)])
@example(results=[_row(name, 0.97, 0.97) for name in ("phase3", "dfs2-phase", "concat6-phase")])
def test_fidelity_json_equals_the_indenting_encoder(results):
    assert render_fidelity_json(results) == dict_fidelity_json(results)


# the leaves and their phase-flavor images; every pair that fits the dense oracle
LEAVES = (bitflip3(), hadamard_conjugate_code(bitflip3()), dfs2(), hadamard_conjugate_code(dfs2()))
PAIRS = [concatenate(top, bottom) for top in LEAVES for bottom in LEAVES if top.n * bottom.n <= 6]
DERIVED = [
    (image, flavor)
    for code in PAIRS
    for image in (code, hadamard_conjugate_code(code))
    for flavor in ("bit", "phase")
]


@lru_cache(maxsize=None)
def derived_recovery(case):
    """The recovery of a derived code on its flavor's 2^n strings, built once per case."""
    code, flavor = DERIVED[case]
    return build_recovery(code, correctable_set(code, _flavored_strings(code.n, flavor)))


def exact_correctable_weight(rs, flavor, model, p, mu):
    """The channel weight of the correctable strings, in rational arithmetic."""
    kept = {op for rop in rs.ops for op in rop.members}
    n, p, mu = rs.code.n, Fraction(p), Fraction(mu)
    if model == MODEL_I:
        paulis, weights = _flavored_strings(n, flavor), _chain_weights(n, p, mu)
    else:
        paulis, weights = _model2_strings(n, flavor), _model2_weights(n, p, mu)
    return sum(w for w, op in zip(weights, paulis) if op in kept)


def test_the_derived_codes_are_the_twelve_pairs_in_both_images_and_flavors():
    assert len(PAIRS) == 12 and len(DERIVED) == 48
    assert sorted(code.n for code in PAIRS) == [4] * 4 + [6] * 8


@pytest.mark.parametrize(
    "case", range(len(DERIVED)), ids=[f"{code.label}-{flavor}" for code, flavor in DERIVED]
)
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(model=models, p=unit, mu=unit)
def test_kernel_oracle_and_exact_weight_agree_beyond_the_registry(case, model, p, mu):
    rs = derived_recovery(case)
    flavor = DERIVED[case][1]
    channel = build_channel(ChannelParams(p=p, mu=mu, n=rs.code.n, flavor=flavor, model=model))
    kernel = entanglement_fidelity_corrected(channel, rs)
    exact = exact_correctable_weight(rs, flavor, model, p, mu)
    assert abs(kernel - exact) <= 1e-12
    assert abs(dense_oracle_fidelity(channel, rs) - exact) <= 1e-12

"""Exact sign structure of integer polynomials on [0, 1] (``corrqec.roots``)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec import roots
from corrqec.fidelity import threshold_mu
from corrqec.roots import sign_structure
from corrqec.sweep import parse_range

from _oracles import bisected_sign_structure


def times(*factors):
    """Product of polynomials given as coefficient lists, constant first."""
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    return out


def test_constant_has_one_gap():
    assert sign_structure([3]) == ([0.0, 1.0], [1])
    assert sign_structure([-2]) == ([0.0, 1.0], [-1])


def test_simple_and_double_roots():
    # (3x - 1)(2x - 1)^2: a crossing at 1/3 and a touch at 1/2
    edges, signs = sign_structure(times([-1, 3], [-1, 2], [-1, 2]))
    assert edges == [0.0, 1 / 3, 0.5, 1.0]
    assert signs == [-1, 1, 1]


def test_roots_at_the_ends_open_no_gap():
    # x (x - 1)^2 (4x - 3): roots at 0 and 1 bound the interval itself
    edges, signs = sign_structure(times([0, 1], [-1, 1], [-1, 1], [-3, 4]))
    assert edges == [0.0, 0.75, 1.0]
    assert signs == [-1, 1]


def test_irrational_root_is_correctly_rounded():
    # 2x^2 - 1 has the root sqrt(1/2), which IEEE sqrt rounds correctly
    assert sign_structure([-1, 0, 2]) == ([0.0, math.sqrt(0.5), 1.0], [-1, 1])


def test_a_tie_rounds_to_even():
    # the root 1 - 2^-54 lies halfway between 1 - 2^-53 and 1.0
    edges, signs = sign_structure([-(2**54 - 1), 2**54])
    assert edges == [0.0, 1.0, 1.0] and signs == [-1, 1]


def test_tiny_and_close_roots():
    assert sign_structure([-1, 2**60]) == ([0.0, 2.0**-60, 1.0], [-1, 1])
    # 1/2 and 1/2 + 2^-60 are distinct roots that round to the same double
    edges, signs = sign_structure(times([-1, 2], [-(2**59 + 1), 2**60]))
    assert edges == [0.0, 0.5, 0.5, 1.0]
    assert signs == [1, -1, 1]


def _tie(y):
    """q x - r with its root halfway between the double y and the next one up."""
    r, k = roots._midpoint(y, math.nextafter(y, math.inf))
    return [[-r, 1 << k]]


def _close_pair(k, r):
    """Two roots 2^-k apart, closer than one ulp of 1/2 for k > 54."""
    r %= 1 << k
    return [[-r, 1 << k], [-(r + 1), 1 << k]]


def _huge(q, r):
    """A root in [0, 1) whose coefficients exceed 2^1100."""
    q += 1 << 1100
    return [[-(r % q), q]]


# each draw gives a list of linear factors q x - r, as coefficient lists
factors = st.one_of(
    st.builds(lambda q, r: [[-r, q]], st.integers(1, 2**64), st.integers(-(2**64), 2**66)),
    st.sampled_from([[[0, 1]], [[-1, 1]]]),  # roots at 0 and 1
    st.builds(_tie, st.floats(0.0, 1.0)),
    st.builds(_close_pair, st.integers(50, 80), st.integers(0, 2**80)),
    st.builds(_huge, st.integers(0, 2**1100), st.integers(0, 2**1101)),
)


@st.composite
def polynomials(draw):
    """A signed product of up to four draws of factors, each raised to a power up to 3."""
    g = [draw(st.sampled_from([1, -1]))]
    for group in draw(st.lists(factors, min_size=1, max_size=4)):
        g = times(g, *group * draw(st.integers(1, 3)))
    return g


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(g=polynomials())
@example(g=times([-1, 3], [-1, 2], [-1, 2]))
@example(g=[-(2**54 - 1), 2**54])
@example(g=times([-1, 2], [-(2**59 + 1), 2**60]))
@example(g=times([0, 1], [0, 1], [-1, 1], [-3, 4]))
@example(g=[-1, 2**1074])  # the root 5e-324, the smallest double
def test_checked_guesses_round_like_bisection(g):
    assert sign_structure(g) == bisected_sign_structure(g)


def test_canonical_threshold_grid_needs_no_bisection(monkeypatch):
    # the canonical threshold request's schemes and p grid, in both models:
    # every root below its interval's upper end is settled by its guess
    real, outcomes = roots._checked_guess, []

    def counted(*args):
        guess = real(*args)
        outcomes.append(guess is not None)
        return guess

    monkeypatch.setattr(roots, "_checked_guess", counted)
    for scheme in ("dfs2", "bit3", "concat6", "unencoded"):
        for model in (1, 2):
            for p in parse_range("0.05:0.45:9"):
                threshold_mu(scheme, model, p)
    assert len(outcomes) >= 40
    assert all(outcomes)

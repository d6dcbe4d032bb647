"""Exact sign structure of integer polynomials on [0, 1] (``corrqec.roots``)."""

import math

from corrqec.roots import sign_structure


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

"""Correlated bit-flip / phase-flip noise channels as Kraus-operator sets.

Two channel families over n qubits, both parametrized by an error
probability p and a memory degree mu in [0, 1]:

* Model I -- a Markov chain over per-qubit error bits.  The flip bit of
  qubit k is drawn conditionally on qubit k-1's bit via

      P(i_k | i_{k-1}) = (1 - mu) * P(i_k) + mu * delta(i_k, i_{k-1}),

  with stationary marginals P(1) = p, P(0) = 1 - p.  The channel has one
  Kraus term per n-bit error string, the X-string (Z-string for the phase
  flavor) supported on the set bits, weighted by the chain probability.

* Model II -- the convex combination (1-mu) * Lambda_0 + mu * Lambda_1,
  where Lambda_0 is the memoryless product channel (model I at mu = 0) and
  Lambda_1 flips either nothing, with weight (1-p)^n, or every qubit at
  once, with weight 1 - (1-p)^n.

A channel stores its Paulis and their weights side by side: the Kraus
operator of term k is sqrt(weights[k]) * paulis[k].  The Paulis depend only
on (n, model, flavor), so ``build_channel`` gives every channel of one such
triple the same cached tuple and builds only the weight list per (mu, p).
The weights are defined once, by ``_chain_weights`` and ``_model2_weights``,
written with ``1 - p`` rather than ``1.0 - p``: the same float arithmetic,
and the threshold derivation runs the same code on exact polynomials in
(mu, p) (``fidelity._fidelity_polynomial``).
Model II's term list keeps Lambda_0 and Lambda_1 contributions as separate
entries even when they carry the same Pauli (the identity, and for mu > 0
the full flip); this unmerged list is the canonical decomposition consumed
by the fidelity evaluator.  `NoiseChannel.merged()` returns the
deduplicated view that the model-mu0 check compares.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import CapacityError, ParameterError
from .pauli import Frozen, PauliString

MODEL_I = 1
MODEL_II = 2

FLAVOR_BIT = "bit"
FLAVOR_PHASE = "phase"

MAX_CHANNEL_QUBITS = 16


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def _check_model(model: int) -> None:
    # True == 1 and 2.0 == 2, but neither is a model number
    if isinstance(model, bool) or not isinstance(model, int) or model not in (MODEL_I, MODEL_II):
        raise ParameterError(f"model must be {MODEL_I} or {MODEL_II}, got {model!r}")


class ChannelParams(namedtuple("ChannelParams", "p mu n flavor model")):
    """Parameters of one channel instance, checked when it is built."""

    __slots__ = ()

    def __new__(
        cls, p: float, mu: float, n: int, flavor: str = FLAVOR_BIT, model: int = MODEL_I
    ) -> ChannelParams:
        # stored as floats: the weight code's integer literals keep an int p an int
        p = _check_unit("p", p)
        mu = _check_unit("mu", mu)
        if isinstance(n, bool) or not isinstance(n, int):
            # a float n fails in build_channel's shifts, and True is not a qubit count
            raise ParameterError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        if n > MAX_CHANNEL_QUBITS:
            raise CapacityError(f"channel enumeration is 2^n; n={n} exceeds {MAX_CHANNEL_QUBITS}")
        if flavor not in (FLAVOR_BIT, FLAVOR_PHASE):
            raise ParameterError(f"flavor must be 'bit' or 'phase', got {flavor!r}")
        _check_model(model)
        return tuple.__new__(cls, (p, mu, n, flavor, model))

    @classmethod
    def _make(cls, iterable) -> ChannelParams:
        # namedtuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)


class NoiseChannel(Frozen):
    """A Pauli channel: Kraus operators sqrt(weights[k]) * paulis[k].

    ``shared`` marks ``paulis`` as a builder's cached tuple, the one object
    that every channel of its (n, model, flavor) carries; the fidelity
    kernel keeps a term table on a recovery set for such a tuple only.
    It takes no part in ``==`` or the repr.
    """

    __slots__ = ("n", "paulis", "weights", "shared")
    _fields = ("n", "paulis", "weights")

    def __init__(
        self, n: int, paulis: tuple[PauliString, ...], weights: list[float], shared: bool = False
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "paulis", paulis)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shared", shared)

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """The (weight, Pauli) pairs, in term order."""
        return tuple(zip(self.weights, self.paulis))

    def total_weight(self) -> float:
        return sum(self.weights)

    def merged(self) -> "NoiseChannel":
        """Deduplicate identical Paulis by adding their weights.

        The merged list is sorted by (x_mask, z_mask, phase).
        """
        acc: dict[tuple[int, int, int], float] = {}
        ops: dict[tuple[int, int, int], PauliString] = {}
        for w, op in self.terms:
            key = (op.x_mask, op.z_mask, op.phase)
            acc[key] = acc.get(key, 0.0) + w
            ops[key] = op
        keys = sorted(acc)
        return NoiseChannel(
            self.n, tuple(ops[key] for key in keys), [acc[key] for key in keys]
        )


def _chain_weights(n: int, p: float, mu: float) -> list[float]:
    """Chain probability of every error string, indexed by mask (bit k-1 = qubit k).

    Built prefix by prefix: appending qubit k+1 as the new high bit multiplies
    each k-qubit weight by the step factor P(cur | prev), so every weight is
    P(i_1) * P(i_2 | i_1) * ... multiplied left to right.
    """
    q, keep = 1 - p, 1 - mu
    # P(i_k = cur | i_{k-1} = prev): stay0 = P(0|0), fall = P(0|1), rise = P(1|0), stay1 = P(1|1)
    stay0, fall = keep * q + mu, keep * q
    rise, stay1 = keep * p, keep * p + mu
    weights = [q, p]
    for _ in range(1, n):
        # the previous qubit (the current high bit) is 0 in the low half of the masks
        half = len(weights) // 2
        low, high = weights[:half], weights[half:]
        weights = [w * stay0 for w in low] + [w * fall for w in high]
        weights += [w * rise for w in low] + [w * stay1 for w in high]
    return weights


def _model2_weights(n: int, p: float, mu: float) -> list[float]:
    """Model II's weights in ``_model2_strings`` order: by mask, then no flip and all flip."""
    # memoryless weight of a string with k flips, scaled by (1 - mu)
    by_flips = [(1 - mu) * (p**k * (1 - p) ** (n - k)) for k in range(n + 1)]
    weights = [by_flips[k] for k in _popcounts(n)]
    survive = (1 - p) ** n
    weights.append(mu * survive)
    weights.append(mu * (1 - survive))
    return weights


@lru_cache(maxsize=None)
def _popcounts(n: int) -> tuple[int, ...]:
    return tuple(m.bit_count() for m in range(1 << n))


@lru_cache(maxsize=None)
def _flavored_strings(n: int, flavor: str) -> tuple[PauliString, ...]:
    """X-strings (Z-strings for the phase flavor) on n qubits, indexed by mask.

    PauliStrings are immutable, so every channel of the same (n, flavor)
    shares these instead of building 2^n new ones.
    """
    make = PauliString.x_string if flavor == FLAVOR_BIT else PauliString.z_string
    return tuple(make(n, m) for m in range(1 << n))


@lru_cache(maxsize=None)
def _model2_strings(n: int, flavor: str) -> tuple[PauliString, ...]:
    """Model II's Paulis: every string by mask, then the no-flip and all-flip strings."""
    strings = _flavored_strings(n, flavor)
    return strings + (strings[0], strings[-1])


def build_channel(params: ChannelParams) -> NoiseChannel:
    """The channel of ``params``, on the cached Pauli tuple of its (n, model, flavor).

    Model I has 2^n terms, masks ascending.  Model II's term list is
    unmerged: 2^n memoryless terms scaled by (1 - mu), then the two
    all-or-nothing terms scaled by mu.
    """
    n, p, mu, flavor = params.n, params.p, params.mu, params.flavor
    if params.model == MODEL_I:
        paulis, weights = _flavored_strings(n, flavor), _chain_weights(n, p, mu)
    else:
        paulis, weights = _model2_strings(n, flavor), _model2_weights(n, p, mu)
    return NoiseChannel(n, paulis, weights, shared=True)

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

A channel stores its Kraus terms as (weight, PauliString) pairs where the
Kraus operator is sqrt(weight) * op.  Model II's term list keeps Lambda_0
and Lambda_1 contributions as separate entries even when they carry the
same Pauli (the identity, and for mu > 0 the full flip); this unmerged
list is the canonical decomposition consumed by the fidelity evaluator.
`NoiseChannel.merged()` returns the deduplicated view used for
normalization checks and correctable-set derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, ParameterError
from .pauli import PauliString, hadamard_conjugate

MODEL_I = 1
MODEL_II = 2

FLAVOR_BIT = "bit"
FLAVOR_PHASE = "phase"

MAX_CHANNEL_QUBITS = 16

WEIGHT_SUM_TOL = 1e-12

_SIGN_PAIRS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}
_PAIR_PHASES = {v: k for k, v in _SIGN_PAIRS.items()}


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of one channel instance."""

    p: float
    mu: float
    n: int
    flavor: str = FLAVOR_BIT
    model: int = MODEL_I

    def __post_init__(self) -> None:
        _check_unit("p", self.p)
        _check_unit("mu", self.mu)
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_CHANNEL_QUBITS:
            raise CapacityError(
                f"channel enumeration is 2^n; n={self.n} exceeds {MAX_CHANNEL_QUBITS}"
            )
        if self.flavor not in (FLAVOR_BIT, FLAVOR_PHASE):
            raise ParameterError(f"flavor must be 'bit' or 'phase', got {self.flavor!r}")
        if self.model not in (MODEL_I, MODEL_II):
            raise ParameterError(f"model must be {MODEL_I} or {MODEL_II}, got {self.model}")


@dataclass(frozen=True)
class NoiseChannel:
    """A Pauli channel: list of (weight, op) with Kraus operator sqrt(w)*op."""

    n: int
    terms: tuple[tuple[float, PauliString], ...]
    model: int | None = None
    flavor: str = FLAVOR_BIT
    p: float | None = None
    mu: float | None = None
    is_merged: bool = False

    def total_weight(self) -> float:
        return sum(w for w, _ in self.terms)

    def operators(self) -> list[PauliString]:
        """Distinct Pauli operators, in first-appearance order."""
        seen: dict[tuple[int, int, int], PauliString] = {}
        for _, op in self.terms:
            seen.setdefault((op.x_mask, op.z_mask, op.phase), op)
        return list(seen.values())

    def merged(self) -> "NoiseChannel":
        """Deduplicate identical Paulis by adding their weights.

        The merged list is sorted by (x_mask, z_mask, phase) for reproducible
        golden files.
        """
        acc: dict[tuple[int, int, int], float] = {}
        ops: dict[tuple[int, int, int], PauliString] = {}
        for w, op in self.terms:
            key = (op.x_mask, op.z_mask, op.phase)
            acc[key] = acc.get(key, 0.0) + w
            ops[key] = op
        terms = tuple((acc[key], ops[key]) for key in sorted(acc))
        return NoiseChannel(
            self.n, terms, self.model, self.flavor, self.p, self.mu, is_merged=True
        )

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "flavor": self.flavor,
            "n": self.n,
            "p": self.p,
            "mu": self.mu,
            "kraus": [
                {
                    "weight": w,
                    "x_mask": op.x_mask,
                    "z_mask": op.z_mask,
                    "sign": list(_SIGN_PAIRS[op.phase]),
                }
                for w, op in self.terms
            ],
        }


def channel_from_json_dict(doc: dict) -> NoiseChannel:
    n = doc["n"]
    terms = tuple(
        (
            float(entry["weight"]),
            PauliString(
                n,
                entry["x_mask"],
                entry["z_mask"],
                _PAIR_PHASES[tuple(entry["sign"])],
            ),
        )
        for entry in doc["kraus"]
    )
    return NoiseChannel(
        n=n,
        terms=terms,
        model=doc.get("model"),
        flavor=doc.get("flavor", FLAVOR_BIT),
        p=doc.get("p"),
        mu=doc.get("mu"),
    )


def conditional_probability(i_k: int, i_j: int, p: float, mu: float) -> float:
    """P(current error bit = i_k | previous bit = i_j) for the Markov chain."""
    if i_k not in (0, 1) or i_j not in (0, 1):
        raise ParameterError("error bits must be 0 or 1")
    _check_unit("p", p)
    _check_unit("mu", mu)
    marginal = p if i_k == 1 else 1.0 - p
    return (1.0 - mu) * marginal + (mu if i_k == i_j else 0.0)


def _chain_weights(n: int, p: float, mu: float) -> list[float]:
    """Chain probability of every error string, indexed by mask (bit k-1 = qubit k).

    Built prefix by prefix: appending qubit k+1 as the new high bit multiplies
    each k-qubit weight by the step factor P(cur | prev), so every weight is
    P(i_1) * P(i_2 | i_1) * ... multiplied left to right.
    """
    q, keep = 1.0 - p, 1.0 - mu
    # step[cur][prev] = P(i_k = cur | i_{k-1} = prev), as in conditional_probability
    step = ((keep * q + mu, keep * q), (keep * p, keep * p + mu))
    weights = [q, p]
    for _ in range(1, n):
        half = len(weights) // 2
        weights = [w * step[cur][m >= half] for cur in (0, 1) for m, w in enumerate(weights)]
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


def model1_channel(params: ChannelParams) -> NoiseChannel:
    """Markov-correlated channel; 2^n Kraus terms, masks ascending."""
    if params.model != MODEL_I:
        raise ParameterError(f"params.model must be {MODEL_I} for model1_channel")
    n, p, mu = params.n, params.p, params.mu
    strings = _flavored_strings(n, params.flavor)
    terms = tuple(zip(_chain_weights(n, p, mu), strings))
    return _checked(NoiseChannel(n, terms, MODEL_I, params.flavor, p, mu))


def model2_channel(params: ChannelParams) -> NoiseChannel:
    """Convex combination of the memoryless channel and the all-or-nothing one.

    The returned term list is unmerged: 2^n memoryless terms scaled by
    (1 - mu), then the two all-or-nothing terms scaled by mu.
    """
    if params.model != MODEL_II:
        raise ParameterError(f"params.model must be {MODEL_II} for model2_channel")
    n, p, mu = params.n, params.p, params.mu
    strings = _flavored_strings(n, params.flavor)
    # memoryless weight of a string with k flips, scaled by (1 - mu)
    by_flips = [(1.0 - mu) * (p**k * (1.0 - p) ** (n - k)) for k in range(n + 1)]
    terms = [(by_flips[k], op) for k, op in zip(_popcounts(n), strings)]
    survive = (1.0 - p) ** n
    terms.append((mu * survive, strings[0]))
    terms.append((mu * (1.0 - survive), strings[-1]))
    return _checked(NoiseChannel(n, tuple(terms), MODEL_II, params.flavor, p, mu))


def build_channel(params: ChannelParams) -> NoiseChannel:
    if params.model == MODEL_I:
        return model1_channel(params)
    return model2_channel(params)


def phase_flavor(channel: NoiseChannel) -> NoiseChannel:
    """Hadamard-conjugate every Kraus operator; weights unchanged."""
    flavor = FLAVOR_PHASE if channel.flavor == FLAVOR_BIT else FLAVOR_BIT
    terms = tuple((w, hadamard_conjugate(op)) for w, op in channel.terms)
    return NoiseChannel(
        channel.n, terms, channel.model, flavor, channel.p, channel.mu, channel.is_merged
    )


def _checked(channel: NoiseChannel) -> NoiseChannel:
    total = channel.total_weight()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ParameterError(f"channel weights sum to {total}, expected 1")
    return channel

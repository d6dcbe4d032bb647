"""Registry of the supported error-correction schemes.

The registry is a closed enumeration: every scheme here has recovery
synthesis and test coverage.  Scheme names accepted on the command line:

    bit3, dfs2, concat6, unencoded      -- base names, combined with a
                                           flavor ('bit' default, 'phase')
    phase3, dfs2-phase, concat6-phase   -- aliases forcing the phase flavor

A phase-flavor code is its bit-flavor code rotated by H on every qubit
(``codes.hadamard_conjugate_code``), except the bare qubit: the trivial
one-qubit code |0>, |1> in both flavors, whose code space is the whole
qubit, correctable set the identity alone, and recovery one isometry with
no complement.

The correctable set, and hence the recovery structure, depends only on the
code and the channel's operator support, never on (p, mu); both are
derived once per (scheme, flavor), in ``scheme_recovery``.
"""

from __future__ import annotations

from functools import lru_cache

from . import codes
from .channels import FLAVOR_BIT, FLAVOR_PHASE, _flavored_strings
from .codes import QuantumCode
from .errors import ParameterError
from .pauli import basis_state
from .recovery import RecoverySet, build_recovery, correctable_set

BASE_SCHEMES = ("bit3", "dfs2", "concat6", "unencoded")

_ALIASES = {
    "phase3": ("bit3", FLAVOR_PHASE),
    "dfs2-phase": ("dfs2", FLAVOR_PHASE),
    "concat6-phase": ("concat6", FLAVOR_PHASE),
}


def resolve_scheme(name: str, flavor: str | None = None) -> tuple[str, str]:
    """Map a scheme name plus optional flavor flag to (base, flavor)."""
    if name in _ALIASES:
        base, forced = _ALIASES[name]
        if flavor is not None and flavor != forced:
            raise ParameterError(f"scheme {name!r} implies flavor {forced!r}, got {flavor!r}")
        return base, forced
    if name not in BASE_SCHEMES:
        known = ", ".join(list(BASE_SCHEMES) + sorted(_ALIASES))
        raise ParameterError(f"unknown scheme {name!r}; known schemes: {known}")
    if flavor is None:
        flavor = FLAVOR_BIT
    if flavor not in (FLAVOR_BIT, FLAVOR_PHASE):
        raise ParameterError(f"flavor must be 'bit' or 'phase', got {flavor!r}")
    return name, flavor


def build_code(base: str, flavor: str) -> QuantumCode:
    """Codewords for a base scheme: the phase flavor is the bit flavor rotated by H."""
    if base == "bit3":
        code = codes.bitflip3()
    elif base == "dfs2":
        code = codes.dfs2()
    elif base == "concat6":
        code = codes.concatenate(codes.dfs2(), codes.bitflip3(), label="concat6")
    elif base == "unencoded":
        # the whole qubit is the code space, so the flavor changes nothing
        return QuantumCode(1, basis_state(1, 0), basis_state(1, 1), "unencoded")
    else:
        raise ParameterError(f"unknown base scheme {base!r}")
    return codes.hadamard_conjugate_code(code) if flavor == FLAVOR_PHASE else code


@lru_cache(maxsize=None)
def scheme_recovery(base: str, flavor: str) -> tuple[QuantumCode, RecoverySet]:
    """Code plus synthesized recovery for a scheme (cached).

    The set is derived on the operator support of both models, the X-strings
    (Z-strings) on n qubits.  The recovery operators' ``members`` partition
    the correctable set, so every reader of the set takes it from here.
    """
    code = build_code(base, flavor)
    return code, build_recovery(code, correctable_set(code, _flavored_strings(code.n, flavor)))

"""The value classes: immutable, compared by value (recovery sets by identity),
copied and pickled whole, with the reprs the former dataclasses printed, and
no ``dataclasses`` on the import path.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import corrqec
from corrqec import (
    ChannelParams,
    NoiseChannel,
    PauliString,
    QuantumCode,
    RecoveryOp,
    RecoverySet,
    basis_state,
    evaluate,
    scheme_recovery,
    threshold_mu,
)
from corrqec.checks import SuiteResult
from corrqec.sweep import ThresholdRow

# SparseState compares by identity, so equal codes and ops share these
ZERO, ONE = basis_state(1, 0), basis_state(1, 1)


def _recovery_set():
    code, rs = scheme_recovery("dfs2", "bit")
    return RecoverySet(code, rs.ops, rs.complement)


# name -> (make, field): every make() call builds a new instance, equal by
# value to the one before, except for RecoverySet, which compares by identity
VALUES = {
    "PauliString": (lambda: PauliString(3, 1, 2, 1), "x_mask"),
    "QuantumCode": (lambda: QuantumCode(1, ZERO, ONE, "q"), "label"),
    "NoiseChannel": (
        lambda: NoiseChannel(1, (PauliString(1), PauliString(1, 1)), [0.75, 0.25], True),
        "weights",
    ),
    "RecoverySet": (_recovery_set, "projected_rows"),
    "ChannelParams": (lambda: ChannelParams(0.1, 0.25, 3), "p"),
    "FidelityResult": (lambda: evaluate("bit3", 1, 0.5, 0.1), "f_numeric"),
    "ThresholdPoint": (lambda: threshold_mu("concat6", 1, 0.1), "regions"),
    "ThresholdRow": (lambda: ThresholdRow(1, "bit3", threshold_mu("bit3", 2, 0.1)), "point"),
    "SuiteResult": (lambda: SuiteResult("endpoints", True, 0.0, "detail"), "passed"),
    "RecoveryOp": (lambda: RecoveryOp(ZERO, ONE, (PauliString(1),)), "members"),
}
# NoiseChannel holds its weights in a list, so it has == but no usable hash
UNHASHABLE = {"NoiseChannel"}


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    make, field = VALUES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
def test_copy_and_pickle_keep_every_field(name):
    make, field = VALUES[name]
    value = make()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert repr(clone) == repr(value)
        with pytest.raises(AttributeError):
            setattr(clone, field, None)


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"RecoverySet"}))
def test_equality_and_hash_are_by_value(name):
    make, _ = VALUES[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_pauli_hash_is_the_hash_of_its_fields():
    # sets and dicts of Paulis iterate in an order fixed by this hash
    assert hash(PauliString(3, 1, 2, 1)) == hash((3, 1, 2, 1))
    assert hash(PauliString(2, 3, 0, 6)) == hash((2, 3, 0, 2))
    assert PauliString(3, 1, 2, 1) != PauliString(3, 1, 2, 3)
    assert PauliString(3, 1) != (3, 1, 0, 0)


def test_noise_channel_equality_ignores_shared():
    paulis = (PauliString(1), PauliString(1, 1))
    assert NoiseChannel(1, paulis, [0.5, 0.5], True) == NoiseChannel(1, paulis, [0.5, 0.5])
    assert NoiseChannel(1, paulis, [0.5, 0.5]) != NoiseChannel(1, paulis, [0.25, 0.75])


def test_recovery_sets_compare_by_identity():
    first, second = _recovery_set(), _recovery_set()
    assert first != second and first == first
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2


def test_pauli_string_is_not_a_tuple():
    op = PauliString(3, 1, 2, 1)
    assert not isinstance(op, tuple)
    with pytest.raises(TypeError):
        len(op)
    with pytest.raises(TypeError):
        iter(op)
    with pytest.raises(TypeError):
        op + op
    with pytest.raises(TypeError):
        2 * op
    assert repr(op) == "PauliString(3, 'iX1Z2')"


def test_reprs_are_the_field_lists():
    # the strings the former dataclasses printed
    assert repr(ChannelParams(0.1, 0.25, 3)) == (
        "ChannelParams(p=0.1, mu=0.25, n=3, flavor='bit', model=1)"
    )
    assert repr(ChannelParams(p=1, mu=0, n=6, flavor="phase", model=2)) == (
        "ChannelParams(p=1.0, mu=0.0, n=6, flavor='phase', model=2)"
    )
    assert repr(evaluate("bit3", 1, 0.5, 0.1)) == (
        "FidelityResult(mu=0.5, p=0.1, scheme='bit3', model=1, f_numeric=0.9179999999999998, "
        "f_closed_form=0.9179999999999999, failure_prob=0.08200000000000018)"
    )
    assert repr(evaluate("unencoded", 2, 0.5, 0.25)) == (
        "FidelityResult(mu=0.5, p=0.25, scheme='unencoded', model=2, f_numeric=0.75, "
        "f_closed_form=None, failure_prob=0.25)"
    )
    assert repr(threshold_mu("concat6", 1, 0.1)) == (
        "ThresholdPoint(p=0.1, mu_star=0.20917227512132938, branch='outside', "
        "regions=((0.0, 0.20917227512132938), (0.7251667102589965, 1.0)))"
    )
    assert repr(threshold_mu("unencoded", 2, 0.1)) == (
        "ThresholdPoint(p=0.1, mu_star=None, branch='none', regions=())"
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook can have loaded either module first; a fidelity
    # request then runs without typing, whose annotations are strings here
    src = Path(corrqec.__file__).resolve().parents[1]
    script = (
        "import sys, corrqec; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
        "import corrqec.cli; "
        "corrqec.cli.main(['fidelity', '--model', '1', '--scheme', 'concat6', "
        "'--p', '0.1', '--mu', '0.5']); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[2].startswith("1,concat6,0.5,0.1,")

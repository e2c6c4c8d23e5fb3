"""overq's records: plain ``__slots__`` classes or ``NamedTuple``s.

A command-line run pays the import of every module it loads, so the package
defines its records without ``dataclasses``, which would pull in
``inspect`` and compile each class's methods at import.  These tests pin
that start-up and the records' value semantics: equal fields give equal
records with equal hashes, fields cannot be assigned, and the records that
validate or normalise their fields still do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overq
from overq.cli import _OPTIONS
from overq.congruences import (
    FamilyReport,
    RunConfig,
    TableReport,
    Witness,
    builtin_families,
    builtin_steps,
)
from overq.eta import EtaQuotient
from overq.expr import (
    DissectRecipe,
    EtaRecipe,
    JacobiRecipe,
    ScaleRecipe,
    ShiftRecipe,
    SubstRecipe,
    SumRecipe,
    ThetaRecipe,
)
from overq.identities import IdentityCase, IdentityReport
from overq.oracle import CountTable, count_overpartition_tuples
from overq.series import Ring, Zmod

SRC = Path(overq.__file__).parent.parent

# The set-up a command-line run pays before its command: what the bench's
# child process does before it times a command.
SETUP = """
import json, sys
import overq, overq.cli
from overq.congruences import builtin_steps
overq.builtin_families()
overq.builtin_identities()
builtin_steps()
print(json.dumps(sorted(sys.modules)))
"""


def test_start_up_imports_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", SETUP], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "overq.congruences" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_no_overq_module_names_dataclasses():
    for path in Path(overq.__file__).parent.glob("*.py"):
        assert "dataclasses" not in path.read_text(), path.name


q = EtaQuotient(((1, -3), (3, 12)))

# name -> (record, the same fields again, one field changed, a field name)
VALUE_RECORDS = {
    "Ring": (Zmod(4), Ring(4), Ring(8), "modulus"),
    "EtaQuotient": (q, EtaQuotient(((3, 12), (1, -3))), EtaQuotient(((1, -3),)), "factors"),
    "RunConfig": (RunConfig(), RunConfig(n_max=200), RunConfig(n_max=201), "n_max"),
    "Witness": (
        Witness((("t", 1),), 3, 16, 32, 0), Witness((("t", 1),), 3, 16, 32, 0),
        Witness((("t", 1),), 3, 17, 32, 0), "value",
    ),
    "FamilyReport": (
        FamilyReport("k", "theorem", 2, 10, 0, ()), FamilyReport("k", "theorem", 2, 10, 0, ()),
        FamilyReport("k", "theorem", 2, 10, 1, ()), "failures",
    ),
    "TableReport": (TableReport(16, 8, 48, ()), TableReport(16, 8, 48, ()),
                    TableReport(16, 8, 47, ()), "entries_checked"),
    "CountTable": (CountTable("opt-tuples", 1, (1, 2)), CountTable("opt-tuples", 1, (1, 2)),
                   CountTable("opt-tuples", 2, (1, 2)), "parameter"),
    "IdentityCase": (
        IdentityCase("D", EtaRecipe(q), JacobiRecipe()),
        IdentityCase("D", EtaRecipe(EtaQuotient(((3, 12), (1, -3)))), JacobiRecipe()),
        IdentityCase("D", EtaRecipe(q), JacobiRecipe(), modulus=2), "modulus",
    ),
    "IdentityReport": (IdentityReport("D", None, 10, True), IdentityReport("D", None, 10, True),
                       IdentityReport("D", None, 10, False), "ok"),
    "EtaRecipe": (EtaRecipe(q), EtaRecipe(EtaQuotient(((3, 12), (1, -3)))),
                  EtaRecipe(EtaQuotient()), "quotient"),
    "ThetaRecipe": (ThetaRecipe("a"), ThetaRecipe("a"), ThetaRecipe("b"), "name"),
    "SumRecipe": (SumRecipe((JacobiRecipe(), EtaRecipe(q))),
                  SumRecipe((JacobiRecipe(), EtaRecipe(q))),
                  SumRecipe((EtaRecipe(q), JacobiRecipe())), "terms"),
    "ScaleRecipe": (ScaleRecipe(3, EtaRecipe(q)), ScaleRecipe(3, EtaRecipe(q)),
                    ScaleRecipe(-3, EtaRecipe(q)), "scalar"),
    "ShiftRecipe": (ShiftRecipe(1, JacobiRecipe()), ShiftRecipe(1, JacobiRecipe()),
                    ShiftRecipe(2, JacobiRecipe()), "offset"),
    "SubstRecipe": (SubstRecipe(3, ThetaRecipe("a")), SubstRecipe(3, ThetaRecipe("a")),
                    SubstRecipe(3, ThetaRecipe("b")), "inner"),
    "DissectRecipe": (DissectRecipe(2, 1, JacobiRecipe()), DissectRecipe(2, 1, JacobiRecipe()),
                      DissectRecipe(2, 0, JacobiRecipe()), "residue"),
}


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    record, same, changed, _ = VALUE_RECORDS[name]
    assert record is not same
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != changed and not record == changed
    assert len({record, same, changed}) == 2


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_a_field_cannot_be_assigned(name):
    record, _, changed, field = VALUE_RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(changed, field))
    assert record == VALUE_RECORDS[name][1]


@pytest.mark.parametrize("record", [builtin_families()[0], builtin_steps()[0]])
def test_registry_entries_are_immutable_and_equal_only_to_themselves(record):
    with pytest.raises(AttributeError):
        record.key = "other"
    assert record == record
    again = {"CongruenceFamily": builtin_families, "DissectionStep": builtin_steps}
    assert record != again[type(record).__name__]()[0]  # the same fields, made again


def test_a_ring_still_validates_its_modulus():
    for modulus in (1, 0, -4):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            Ring(modulus)
    assert Ring().modulus is None and Ring() == Ring(None)
    assert str(Ring()) == "exact" and str(Zmod(9)) == "mod 9"
    assert Ring(4) != 4 and Ring() != EtaQuotient()


def test_an_eta_quotient_still_merges_duplicate_scales():
    assert EtaQuotient(((2, 3), (1, -1), (2, -1), (1, 1))).factors == ((2, 2),)
    assert EtaQuotient(((1, 2), (1, -2))) == EtaQuotient()
    assert str(EtaQuotient(((4, 1), (1, -2)))) == "f1^-2 * f4"
    with pytest.raises(ValueError, match="scale must be >= 1"):
        EtaQuotient(((0, 1),))


def test_recipes_of_different_classes_never_compare_equal():
    inner = EtaRecipe(q)
    nodes = [
        ScaleRecipe(2, inner), ShiftRecipe(2, inner), SubstRecipe(2, inner),
        SumRecipe((inner,)), EtaRecipe(q), ThetaRecipe("a"), JacobiRecipe(),
        DissectRecipe(2, 2, inner),
    ]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j), (a, b)
    assert JacobiRecipe() == JacobiRecipe()
    assert repr(ScaleRecipe(2, inner)) == f"ScaleRecipe(scalar=2, inner={inner!r})"


def test_run_config_defaults_are_the_cli_defaults():
    for name in RunConfig._fields:
        assert _OPTIONS[name][1] == getattr(RunConfig(), name)
        assert not isinstance(_OPTIONS[name][1], property)


def test_count_table_count_is_the_count_at_n():
    table = count_overpartition_tuples(1, 6)
    assert [table.count(n) for n in range(7)] == [1, 2, 4, 8, 14, 24, 40]
    with pytest.raises(IndexError, match="outside 0..6"):
        table.count(7)
    assert table.upto == 6


def test_params_text_and_mode_are_shared():
    point = (("i", 2), ("r", 3))
    assert Witness(point, 0, 1, 64, 0).params_text() == "i=2;r=3"
    assert IdentityReport("s", 64, 10, True, params=point).params_text() == "i=2;r=3"
    assert IdentityCase("c", JacobiRecipe(), JacobiRecipe()).mode == "exact"
    assert IdentityReport("s", 64, 10, True).mode == "mod 64"
    assert Witness(point, 0, 1, 64, 0).mode == "mod 64"

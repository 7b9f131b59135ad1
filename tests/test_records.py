"""The package's records keep one contract: fields in a fixed order,
positional and keyword construction, their defaults, the repr text,
equality and hash over the compared fields (every field but
``Program.universe`` and ``Verdict.method``), no assignment to a frozen
record, pickle and deepcopy round trips, and ``ValueError`` on a bad
shape, raised also under ``python -O``."""

import copy
import pickle

import pytest

from aspeq.classify import ProgramClass
from aspeq.equivalence import Verdict, Witness
from aspeq.harness import GeneratorConfig, SweepReport
from aspeq.relativized import ASEPair
from aspeq.syntax import Atom, Program, Rule, Universe

UNI = Universe("ab")
FACT_A = Program(frozenset({Rule(1, 0, 0)}), UNI)
FACT_B = Program(frozenset({Rule(2, 0, 0)}), UNI)
WITNESS = Witness(FACT_A, 1, "left")
FLAGS = ("horn", "definite", "unary", "normal", "positive", "hcf", "disjunctive")

# (class, fields as (name, value, another valid value), compared names, repr)
RECORDS = [
    (Atom, [("id", 0, 1), ("name", "a", "b")], "id name", "Atom(id=0, name='a')"),
    (Rule, [("head", 1, 4), ("pos", 2, 0), ("neg", 0, 1)], "head pos neg", "Rule(head=1, pos=2, neg=0)"),
    (
        Program,
        [("rules", FACT_A.rules, FACT_B.rules), ("universe", UNI, Universe("xy"))],
        "rules",
        f"Program(rules=frozenset({{Rule(head=1, pos=0, neg=0)}}), universe={UNI!r})",
    ),
    (
        Witness,
        [("context", FACT_A, FACT_B), ("distinguishing", 1, 3), ("side", "left", "right")],
        "context distinguishing side",
        f"Witness(context={FACT_A!r}, distinguishing=1, side='left')",
    ),
    (
        Verdict,
        [("equivalent", False, False), ("mode", "strong", "uniform"), ("alphabet", 3, 1),
         ("witness", WITNESS, Witness(FACT_B, 2, "right")), ("method", "generic", "horn")],
        "equivalent mode alphabet witness",
        f"Verdict(equivalent=False, mode='strong', alphabet=3, witness={WITNESS!r}, method='generic')",
    ),
    (ASEPair, [("x", 1, 0), ("y", 3, 1), ("a", 3, 7)], "x y a", "ASEPair(x=1, y=3, a=3)"),
    (
        ProgramClass,
        [(n, i % 2 == 0, i % 2 == 1) for i, n in enumerate(FLAGS)],
        " ".join(FLAGS),
        "ProgramClass(horn=True, definite=False, unary=True, normal=False, positive=True, hcf=False, disjunctive=True)",
    ),
    (
        GeneratorConfig,
        [("atom_count", 2, 3), ("rule_count", 3, 0), ("seed", 5, 6), ("require", frozenset({"normal"}), frozenset())],
        "atom_count rule_count seed require",
        "GeneratorConfig(atom_count=2, rule_count=3, seed=5, require=frozenset({'normal'}))",
    ),
    (
        SweepReport,
        [("prop", "shift", "hierarchy"), ("checked", 4, 5), ("counterexamples", ["c"], [])],
        "prop checked counterexamples",
        "SweepReport(prop='shift', checked=4, counterexamples=['c'])",
    ),
]
FROZEN = [rec for rec in RECORDS if rec[0] is not SweepReport]
IDS = [rec[0].__name__ for rec in RECORDS]


def _build(cls, fields):
    return cls(**{name: value for name, value, _ in fields})


@pytest.mark.parametrize("cls, fields, compared, text", RECORDS, ids=IDS)
def test_fields_construction_and_repr(cls, fields, compared, text):
    r = _build(cls, fields)
    assert [getattr(r, name) for name, _, _ in fields] == [value for _, value, _ in fields]
    assert cls(*[value for _, value, _ in fields]) == r
    assert repr(r) == text


@pytest.mark.parametrize("cls, fields, compared, text", RECORDS, ids=IDS)
def test_equality_over_the_compared_fields(cls, fields, compared, text):
    r = _build(cls, fields)
    key = tuple(getattr(r, name) for name in compared.split())
    if cls is SweepReport:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(key)
    assert r != key and r.__eq__(key) is NotImplemented
    for name, _, other in fields:
        variant = cls(**{n: other if n == name else v for n, v, _ in fields})
        if name in compared.split() and other != getattr(r, name):
            assert variant != r, name
        else:
            assert variant == r, name
            if cls is not SweepReport:
                assert hash(variant) == hash(r)


def test_named_identities():
    assert hash(Rule(1, 2, 0)) == hash((1, 2, 0))
    assert Rule(1, 2, 0) != (1, 2, 0)
    rules = frozenset({Rule(1, 2, 0)})
    assert Program(rules, Universe("ab")) == Program(rules, Universe("xy"))
    assert Verdict(True, "strong", 3, None, "generic") == Verdict(True, "strong", 3, None)
    assert len({Verdict(True, "strong", 3, None, m) for m in (None, "horn", "generic")}) == 1


def test_defaults():
    assert Verdict(False, "strong", 3, WITNESS).method is None
    assert GeneratorConfig(2, 3, 5).require == frozenset()
    first, second = SweepReport("shift", 0), SweepReport("shift", 0)
    first.counterexamples.append("c")
    assert second.counterexamples == []


@pytest.mark.parametrize("cls, fields, compared, text", FROZEN, ids=[rec[0].__name__ for rec in FROZEN])
def test_frozen_records_refuse_assignment(cls, fields, compared, text):
    r = _build(cls, fields)
    for name, _, other in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, other)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert [getattr(r, name) for name, _, _ in fields] == [value for _, value, _ in fields]


def test_sweep_report_stays_mutable():
    report = SweepReport("shift", 0)
    report.checked += 1
    report.counterexamples.append("c")
    assert report == SweepReport("shift", 1, ["c"]) and not report.ok


@pytest.mark.parametrize("cls, fields, compared, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, fields, compared, text):
    r = _build(cls, fields)
    copies = [pickle.loads(pickle.dumps(r, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(r), copy.copy(r)]
    for c in copies:
        assert type(c) is cls and c == r and repr(c).split(" object at ")[0] == text.split(" object at ")[0]
        for name, value, _ in fields:
            got = getattr(c, name)
            assert got.names == value.names if isinstance(value, Universe) else got == value


def test_constructors_raise_value_error():
    bad = [
        lambda: Witness(FACT_A, 1, "middle"),
        lambda: Verdict(True, "bogus", 0, None),
        lambda: Verdict(True, "strong", 0, WITNESS),
        lambda: Verdict(False, "strong", 0, None),
        lambda: ASEPair(2, 1, 1),
        lambda: ASEPair(1, 3, 1 | 4),
        lambda: GeneratorConfig(0, 1, 0),
        lambda: GeneratorConfig(9, 1, 0),
        lambda: GeneratorConfig(2, -1, 0),
        lambda: GeneratorConfig(2, 13, 0),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()

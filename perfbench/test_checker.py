"""Tests of the benchmark's own verdict checker and pair constructions.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import sys
from itertools import chain, combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from checker import is_answer_set, parse, verify_witness  # noqa: E402


def subsets(atoms):
    atoms = sorted(atoms)
    return [frozenset(c) for c in chain.from_iterable(combinations(atoms, r) for r in range(len(atoms) + 1))]


def answer_sets(rules):
    return {m for m in subsets(checker.atoms(rules)) if is_answer_set(rules, m)}


def se_models(rules, over):
    """SE-models by definition: Y models P, X ⊆ Y models the reduct P^Y."""
    out = set()
    for y in subsets(over):
        if not checker.is_model(y, rules):
            continue
        reduct = [(h, p, frozenset()) for h, p, n in rules if not n & y]
        out |= {(x, y) for x in subsets(y) if checker.is_model(x, reduct)}
    return out


@pytest.mark.parametrize("text, expected", [
    ("a | b.", [{"a"}, {"b"}]),
    ("a :- not b. b :- not a.", [{"a"}, {"b"}]),
    ("a :- a.", [set()]),
    ("p :- not p.", []),
    ("a | b. a :- b. b :- a.", [{"a", "b"}]),
    ("a | b. :- a. % comment", [{"b"}]),
    ("a. .", []),
])
def test_answer_sets_by_definition(text, expected):
    assert answer_sets(parse(text)) == {frozenset(e) for e in expected}


def test_parse_render_round_trip():
    text = "a | b :- c, not d.\n:- a.\n.\nc."
    assert parse(checker.render(parse(text))) == parse(text)


def readme_witness():
    from aspeq.equivalence import decide_rel_uniform
    from aspeq.syntax import Universe, parse_program

    p_text, q_text = "a | b.", "a :- not b. b :- not a. c :- a, b. :- c."
    uni = Universe()
    v = decide_rel_uniform(parse_program(p_text, uni), parse_program(q_text, uni), uni.mask_of(["a", "b"]))
    assert not v.equivalent
    ctx = [(frozenset(uni.decode(r.head)), frozenset(uni.decode(r.pos)), frozenset(uni.decode(r.neg)))
           for r in v.witness.context.rules]
    return parse(p_text), parse(q_text), ctx, frozenset(uni.decode(v.witness.distinguishing)), v.witness.side


def test_genuine_witness_accepted():
    p, q, ctx, m, side = readme_witness()
    assert verify_witness(p, q, "rel-uniform", frozenset("ab"), ctx, m, side) is None


def test_tampered_witnesses_rejected():
    p, q, ctx, m, side = readme_witness()
    other = "right" if side == "left" else "left"
    a = frozenset("ab")
    assert verify_witness(p, q, "rel-uniform", a, ctx, m | {"c"}, side)  # wrong interpretation
    assert verify_witness(p, q, "rel-uniform", a, ctx, m, other)  # wrong side
    assert verify_witness(p, q, "rel-uniform", a, [], m, side)  # context dropped
    assert verify_witness(p, q, "rel-uniform", frozenset("a"), ctx, m, side)  # atom outside A
    rule = checker.parse_rule("a :- b.")
    assert verify_witness(p, q, "rel-uniform", a, ctx + [rule], m, side)  # not a fact
    assert verify_witness(p, q, "ordinary", None, ctx, m, side)  # ordinary needs no context
    assert verify_witness(p, q, "sideways", None, ctx, m, side)


FAMILY_SIZES = [("chain", 2), ("chain", 3), ("loops", 2), ("loops", 3), ("cyclic", 2),
                ("cyclic", 3), ("horn", 2), ("horn", 3), ("random", 2), ("random", 3)]


@pytest.mark.parametrize("family, k", FAMILY_SIZES)
@pytest.mark.parametrize("how", [None, "pos neg head"])
def test_equal_pairs_are_strongly_equivalent(family, k, how):
    from random import Random

    for seed in range(3):
        pr = workloads.make_pair(family, k, "equal", Random(seed), how)
        over = checker.atoms(pr.p + pr.q)
        assert se_models(list(pr.p), over) == se_models(list(pr.q), over)
        assert pr.equivalent_in == frozenset(checker.MODES)


@pytest.mark.parametrize("family, k", FAMILY_SIZES)
def test_near_miss_pairs_differ_ordinarily(family, k):
    from random import Random

    kinds = ["constraint"] + (["dropped"] if family != "random" else []) + (["shifted"] if family == "cyclic" else [])
    for kind in kinds:
        for seed in range(3):
            pr = workloads.make_pair(family, k, kind, Random(seed))
            workloads.certify([pr])
            assert answer_sets(list(pr.p)) != answer_sets(list(pr.q))
            assert not pr.equivalent_in


@pytest.mark.parametrize("k, at", [(2, 0), (2, -1), (3, 1)])
def test_shifted_hcf_pairs(k, at):
    from random import Random

    pr = workloads.make_pair("chain", k, "shifted-hcf", Random(k), at=at)
    workloads.certify([pr])
    ctx, _ = pr.cert
    assert checker.atoms(ctx) <= pr.alphabet  # admissible for rel-strong
    # uniform equivalence: the same answer sets under every set of facts
    for facts in subsets(checker.atoms(pr.p)):
        extra = [workloads.R([a]) for a in facts]
        assert answer_sets(list(pr.p) + extra) == answer_sets(list(pr.q) + extra)


@pytest.mark.parametrize("workload", ["se-equal", "rel-auto", "witness-nearmiss", "cli-small"])
def test_workloads_are_seeded(workload):
    first, again, other = (workloads.build(workload, s) for s in (7, 7, 8))
    assert first == again
    assert first != other
    assert len(first) == len(other)
    workloads.certify({t.pair for t in first if t.pair is not None})

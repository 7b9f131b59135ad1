import pytest

from aspeq.harness import sm_from_se
from aspeq.se import (
    decide_strong,
    decide_uniform,
    is_se_model,
    se_consequence,
    se_models,
    ue_class_check,
    ue_consequence,
    ue_models,
)
from aspeq.semantics import answer_sets
from aspeq.syntax import Program, Rule, Universe, parse_program, render

from conftest import fmt_pairs, pair, prog, random_pair, se_consequence_listing, ue_consequence_listing


def test_is_se_model_examples():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    q2 = prog("a :- not b. b :- not a.", uni)
    ab = uni.full_mask
    assert not is_se_model(p, 0, ab)
    assert is_se_model(q2, 0, ab)
    # any classical model gives a total SE-model
    assert is_se_model(p, uni.mask_of(["a"]), uni.mask_of(["a"]))
    with pytest.raises(ValueError):
        is_se_model(p, ab, 0)


def test_se_listing_goldens():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    q2 = prog("a :- not b. b :- not a.", uni)
    expect_p = ["({a},{a})", "({b},{b})", "({a},{a,b})", "({b},{a,b})", "({a,b},{a,b})"]
    assert fmt_pairs(uni, se_models(p, uni.full_mask)) == expect_p
    assert fmt_pairs(uni, se_models(q2, uni.full_mask)) == (
        ["({a},{a})", "({b},{b})", "({},{a,b})", "({a},{a,b})", "({b},{a,b})", "({a,b},{a,b})"]
    )
    # UE drops the non-maximal ({},{a,b})
    assert fmt_pairs(uni, ue_models(q2, uni.full_mask)) == expect_p


def test_se_empty_program():
    uni = Universe(["a"])
    p = Program(frozenset(), uni)
    assert se_models(p, uni.full_mask) == [(0, 0), (0, 1), (1, 1)]


def test_se_p4_q4_goldens():
    uni = Universe(["a", "b", "c"])
    p4 = prog("a :- not b. a :- b.", uni)
    q4 = prog("a :- not c. a :- c.", uni)
    over = uni.full_mask
    a = uni.mask_of(["a"])
    s = {(x, y) for y in range(8) for x in range(8)
         if (a & ~x) == 0 and (x & ~y) == 0}
    ab, ac, abc = uni.mask_of(["a", "b"]), uni.mask_of(["a", "c"]), over
    c, b = uni.mask_of(["c"]), uni.mask_of(["b"])
    assert set(se_models(p4, over)) == {(0, ab), (0, abc), (c, abc)} | s
    assert set(se_models(q4, over)) == {(0, ac), (0, abc), (b, abc)} | s


def test_ue_p4_golden():
    # UE-models of P4 over {a,b,c}: X in {Y, Y minus b, Y minus c}
    uni = Universe(["a", "b", "c"])
    p4 = prog("a :- not b. a :- b.", uni)
    over = uni.full_mask
    a, b, c = (uni.mask_of([n]) for n in "abc")
    expect = set()
    for y in range(8):
        if not a & y:
            continue
        expect |= {(y, y), (y & ~b, y), (y & ~c, y)}
    expect = {(x, y) for x, y in expect if (x & ~y) == 0}
    assert set(ue_models(p4, over)) == expect


def test_consequence_examples():
    uni = Universe(["a"])
    p = prog("a :- not a.", uni)
    fact_a = Rule(uni.mask_of(["a"]), 0, 0)
    assert not ue_consequence(p, fact_a)  # UE-model ({},{a}) violates it
    # cautious consequence holds: the single answer-set candidate fails,
    # so SM(P) is empty and everything follows
    assert answer_sets(p) == []
    q = prog("a | b.", Universe(["a", "b"]))
    for r in q.rules:
        assert se_consequence(q, r)
        assert ue_consequence(q, r)


def test_consequence_matches_the_listing_oracles():
    # every rule over three atoms against random programs over four, so
    # that some rules add atoms to the programs
    for seed in range(8):
        p, _, _, _ = random_pair(seed, atoms=4, max_rules=5)
        for h in range(8):
            for b in range(8):
                for n in range(8):
                    r = Rule(h, b, n)
                    assert se_consequence(p, r) == se_consequence_listing(p, r), (p.rules, r)
                    assert ue_consequence(p, r) == ue_consequence_listing(p, r), (p.rules, r)


def test_ue_class_check():
    uni = Universe(["a"])
    assert not ue_class_check(prog("a :- not a.", uni))
    assert ue_class_check(Program(frozenset(), uni))
    pos = prog("a | b. c :- a.", Universe())
    assert ue_class_check(pos)


def test_answer_sets_via_se_matches_direct():
    for text in ["a | b.", "a :- not b. b :- not a.", "a :- not a.", "", ". "]:
        uni = Universe(["a", "b"])
        p = prog(text, uni)
        assert sorted(sm_from_se(se_models(p, p.var))) == sorted(answer_sets(p))


def test_decide_strong_goldens():
    p1, q1, _ = pair("a | b.", "a | b. a :- not b.")
    assert decide_strong(p1, q1).equivalent

    p2, q2, uni = pair("a | b.", "a :- not b. b :- not a.")
    v = decide_strong(p2, q2)
    assert not v.equivalent
    assert render(v.witness.context) == "a :- b.\nb :- a."
    assert v.witness.distinguishing == uni.full_mask
    assert v.witness.side == "left"

    p4, q4, uni2 = pair("a :- not b. a :- b.", "a :- not c. a :- c.")
    v = decide_strong(p4, q4)
    assert not v.equivalent
    # the distinguishing answer set {a,b} belongs to Q4 plus the context
    assert v.witness.distinguishing == uni2.mask_of(["a", "b"])
    assert v.witness.side == "right"


def test_decide_uniform_goldens():
    p2, q2, _ = pair("a | b.", "a :- not b. b :- not a.")
    assert decide_uniform(p2, q2).equivalent
    p4, q4, _ = pair("a :- not b. a :- b.", "a :- not c. a :- c.")
    assert decide_uniform(p4, q4).equivalent
    p5, q5, uni = pair("a | b.", "a :- not b. b :- not a. c :- a, b. :- c.")
    v = decide_uniform(p5, q5)
    assert not v.equivalent
    assert v.witness.context.rules == {Rule(uni.mask_of(["c"]), 0, 0)}
    assert v.witness.side == "left"


def test_decide_requires_shared_universe():
    p = parse_program("a.", Universe())
    q = parse_program("a.", Universe())
    with pytest.raises(ValueError):
        decide_strong(p, q)

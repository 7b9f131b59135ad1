"""Ten acceptance checks; each prints one [acceptance] line on completion."""

import functools
import sys

from aspeq.equivalence import (
    brute_force_oracle,
    decide_horn_bounded,
    decide_horn_rel,
    decide_ordinary,
    decide_rel_strong,
    decide_rel_uniform,
)
from aspeq.harness import (
    exhaustive_sweep,
    strong_signature,
    unary_signature,
    uniform_signature,
)
from aspeq.relativized import (
    ASEPair,
    a_minimal_models,
    ase_check_normal,
    ase_models,
    aue_check_hcf,
    aue_models,
)
from aspeq.se import decide_strong, decide_uniform, se_models, ue_models
from aspeq.semantics import classical_models, submasks
from aspeq.syntax import Program, Rule, Universe, render
from aspeq.transforms import check_shift_safe, shift_one, shift_program, shift_rule, s_r

from conftest import fmt_pairs, pair, prog, random_pair, shift_safe_listing


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import conftest

            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"[acceptance] criterion {n}: FAIL"
                conftest.ACCEPTANCE_LINES.append(line)
                print(line, file=sys.stderr, flush=True)
                raise
            line = f"[acceptance] criterion {n}: PASS"
            conftest.ACCEPTANCE_LINES.append(line)
            print(line, file=sys.stderr, flush=True)

        return wrapper

    return deco


@criterion(1)
def test_criterion_01_golden_examples():
    p1, q1, _ = pair("a | b.", "a | b. a :- not b.")
    assert decide_strong(p1, q1).equivalent

    p2, q2, uni2 = pair("a | b.", "a :- not b. b :- not a.")
    assert decide_uniform(p2, q2).equivalent
    v = decide_strong(p2, q2)
    assert not v.equivalent
    assert render(v.witness.context) == "a :- b.\nb :- a."
    assert v.witness.distinguishing == uni2.mask_of(["a", "b"])

    p4, q4, _ = pair("a :- not b. a :- b.", "a :- not c. a :- c.")
    assert decide_uniform(p4, q4).equivalent
    assert not decide_strong(p4, q4).equivalent

    p5, q5, uni5 = pair("a | b.", "a :- not b. b :- not a. c :- a, b. :- c.")
    ab = uni5.mask_of(["a", "b"])
    # the pair stays interchangeable under facts over any proper subset of
    # {a,b}; adding both facts at once separates them, confirmed against
    # the definitional fact-set oracle
    for a in submasks(ab):
        expect = a != ab
        assert decide_rel_uniform(p5, q5, a, method="generic").equivalent == expect
        assert brute_force_oracle(p5, q5, a, "uniform").equivalent == expect
    for a in (ab, uni5.full_mask):
        assert not decide_rel_strong(p5, q5, a, method="generic").equivalent
    v = decide_uniform(p5, q5)
    assert not v.equivalent
    assert v.witness.context.rules == {Rule(uni5.mask_of(["c"]), 0, 0)}
    assert v.witness.distinguishing == uni5.mask_of(["a", "c"])


@criterion(2)
def test_criterion_02_relativized_model_rows():
    uni = Universe(["a", "b", "c"])
    q = prog("a | b. a :- c. b :- c. :- not c. c :- a, b.", uni)
    qp = prog("a :- not b. b :- not a. a :- c. b :- c. :- not c. c :- a, b.", uni)
    over = uni.full_mask
    abc = ["({a},{a,b,c})", "({b},{a,b,c})", "({a,b,c},{a,b,c})"]
    abc_e = ["({},{a,b,c})"] + abc
    rows = {
        ("a", "b", "c"): (abc, abc_e),
        ("a", "b"): (abc, abc_e),
        ("a", "c"): (["({},{a,b,c})", "({a},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
        ("b", "c"): (["({},{a,b,c})", "({b},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
        ("a",): ([], []),
        ("b",): ([], []),
        ("c",): (["({},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
        (): ([], []),
    }
    for names, (want_q, want_qp) in rows.items():
        a = uni.mask_of(list(names))
        assert sorted(fmt_pairs(uni, ase_models(q, a, over))) == sorted(want_q), names
        assert sorted(fmt_pairs(uni, ase_models(qp, a, over))) == sorted(want_qp), names


@criterion(3)
def test_criterion_03_se_ue_listings():
    uni = Universe(["a", "b"])
    p2 = prog("a | b.", uni)
    q2 = prog("a :- not b. b :- not a.", uni)
    expect_p2 = ["({a},{a})", "({b},{b})", "({a},{a,b})", "({b},{a,b})", "({a,b},{a,b})"]
    assert fmt_pairs(uni, se_models(p2, uni.full_mask)) == expect_p2
    assert fmt_pairs(uni, se_models(q2, uni.full_mask)) == [
        "({a},{a})", "({b},{b})", "({},{a,b})", "({a},{a,b})", "({b},{a,b})", "({a,b},{a,b})",
    ]
    assert fmt_pairs(uni, ue_models(q2, uni.full_mask)) == expect_p2

    uni3 = Universe(["a", "b", "c"])
    p4 = prog("a :- not b. a :- b.", uni3)
    over = uni3.full_mask
    a, b, c = (uni3.mask_of([n]) for n in "abc")
    expect = set()
    for y in submasks(over):
        if not a & y:
            continue
        expect |= {(y, y), (y & ~b, y), (y & ~c, y)}
    assert set(ue_models(p4, over)) == expect


@criterion(4)
def test_criterion_04_uniform_oracle_agreement():
    report = exhaustive_sweep(2, "uniform-oracle")
    assert report.ok and report.checked > 0
    for seed in range(1000):
        p, q, uni, rng = random_pair(seed, atoms=5, max_rules=5)
        over = uni.full_mask
        full = uniform_signature(p, over, over) == uniform_signature(q, over, over)
        assert decide_uniform(p, q).equivalent == full, seed
        a = rng.randint(0, over)
        assert (
            decide_rel_uniform(p, q, a, method="generic").equivalent
            == brute_force_oracle(p, q, a, "uniform").equivalent
        ), seed


@criterion(5)
def test_criterion_05_strong_oracle_agreement():
    report = exhaustive_sweep(2, "unary-oracle")
    assert report.ok and report.checked > 0
    for seed in range(1000):
        p, q, uni, rng = random_pair(seed, atoms=5, max_rules=5)
        over = uni.full_mask
        picks = [a for a in submasks(over) if a.bit_count() <= 2]
        a = rng.choice(picks)
        d = decide_rel_strong(p, q, a, method="generic").equivalent
        unary = unary_signature(p, a, over) == unary_signature(q, a, over)
        rich = strong_signature(p, a, over) == strong_signature(q, a, over)
        assert d == unary == rich, (seed, uni.fmt(a))


@criterion(6)
def test_criterion_06_positive_collapse():
    for seed in range(500):
        p, q, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["positive"])
        over = uni.full_mask
        a = rng.randint(0, over)
        s = decide_rel_strong(p, q, a, method="generic").equivalent
        u = decide_rel_uniform(p, q, a, method="generic").equivalent
        m = sorted(a_minimal_models(p, a, over)) == sorted(a_minimal_models(q, a, over))
        assert s == u == m, seed
        full_s = decide_rel_strong(p, q, over, method="generic").equivalent
        cl = classical_models(p, over) == classical_models(q, over)
        assert full_s == cl, seed


@criterion(7)
def test_criterion_07_shift_properties():
    for atoms in (2, 3):
        assert exhaustive_sweep(atoms, "shift-subset").ok
        assert exhaustive_sweep(atoms, "shift-difference").ok
    for seed in range(500):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["hcf"])
        a = rng.randint(0, uni.full_mask)
        assert decide_rel_uniform(p, shift_program(p), a, method="generic").equivalent, seed
        for r in p.rules:
            if r.head.bit_count() < 2:
                continue
            # the gained-pair characterization against the decider, and the
            # shipped check (the decider's row search) against both
            safe = shift_safe_listing(p, r, a)
            assert safe == decide_rel_strong(p, shift_one(p, r), a, method="generic").equivalent, seed
            assert check_shift_safe(p, r, a) == safe, seed


@criterion(8)
def test_criterion_08_special_case_agreement():
    for seed in range(500):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["normal"])
        over = uni.full_mask
        a = rng.randint(0, over)
        truth = {(pr.x, pr.y) for pr in ase_models(p, a, over)}
        for _ in range(4):
            y = rng.randint(0, over)
            xs = [x for x in submasks(y & a) if x != (y & a)]
            x = rng.choice(xs) if xs and rng.random() < 0.7 else y
            pr = ASEPair(x, y, a)
            assert ase_check_normal(p, pr, over) == ((pr.x, pr.y) in truth), seed
    for seed in range(500):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["hcf"])
        over = uni.full_mask
        a = rng.randint(0, over)
        truth = {(pr.x, pr.y) for pr in aue_models(p, a, over)}
        for _ in range(4):
            y = rng.randint(0, over)
            xs = [x for x in submasks(y & a) if x != (y & a)]
            x = rng.choice(xs) if xs and rng.random() < 0.7 else y
            pr = ASEPair(x, y, a)
            assert aue_check_hcf(p, pr, over) == ((pr.x, pr.y) in truth), seed
    for seed in range(500):
        p, q, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["horn"])
        a = rng.randint(0, uni.full_mask)
        want = decide_rel_strong(p, q, a, method="generic").equivalent
        assert decide_horn_rel(p, q, a).equivalent == want, seed
        assert decide_horn_bounded(p, q, a).equivalent == want, seed
        assert decide_rel_uniform(p, q, a, method="generic").equivalent == want, seed


@criterion(9)
def test_criterion_09_degenerate_alphabets():
    report = exhaustive_sweep(2, "degenerate-alphabets")
    assert report.ok and report.checked > 0
    for seed in range(200):
        p, q, uni, rng = random_pair(seed, atoms=4, max_rules=4)
        over = uni.full_mask
        ordinary = decide_ordinary(p, q).equivalent
        assert brute_force_oracle(p, q, 0, "ordinary").equivalent == ordinary
        assert decide_rel_strong(p, q, 0, method="generic").equivalent == ordinary
        assert decide_rel_uniform(p, q, 0, method="generic").equivalent == ordinary
        single = 1 << rng.randrange(4)
        assert (
            decide_rel_strong(p, q, single, method="generic").equivalent
            == decide_rel_uniform(p, q, single, method="generic").equivalent
        )
        assert (
            decide_rel_strong(p, q, over, method="generic").equivalent
            == decide_strong(p, q).equivalent
        )
        assert (
            decide_rel_uniform(p, q, over, method="generic").equivalent
            == decide_uniform(p, q).equivalent
        )


@criterion(10)
def test_criterion_10_non_closure_golden():
    uni = Universe(["a", "b", "c"])
    base = ":- not a. :- not b. :- not c. "
    pa = prog(base + "a. b :- c. c :- b.", uni)
    pb = prog(base + "b. a :- c. c :- a.", uni)
    pc = prog(base + "c. a :- b. b :- a.", uni)
    a = uni.mask_of(["c"])
    over = uni.full_mask
    abc = over
    assert {(pr.x, pr.y) for pr in ase_models(pa, a, over)} == {(0, abc), (abc, abc)}
    assert {(pr.x, pr.y) for pr in ase_models(pb, a, over)} == {(0, abc), (abc, abc)}
    assert ase_models(pc, a, over) == []
    for left, right in [(pa, pb), (pa, pc), (pb, pc)]:
        assert {(pr.x, pr.y) for pr in ase_models(left | right, a, over)} == {(abc, abc)}

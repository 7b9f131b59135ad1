"""Invariant checks driven by randomized program generation."""

from hypothesis import given, settings, strategies as st

from aspeq.equivalence import (
    decide_ordinary,
    decide_rel_strong,
    decide_rel_uniform,
)
from aspeq.harness import GeneratorConfig, random_program, sm_from_se
from aspeq.relativized import ase_models
from aspeq.se import (
    decide_strong,
    decide_uniform,
    is_se_model,
    se_models,
    ue_class_check,
    ue_consequence,
    ue_models,
)
from aspeq.semantics import answer_sets, classical_models, reduct, submasks
from aspeq.syntax import Program, Rule, Universe, facts_program

ATOMS = 3
SEEDS = st.integers(min_value=0, max_value=10**6)
SETTINGS = settings(max_examples=60, deadline=None)


def make(seed, uni, rules=4, require=()):
    cfg = GeneratorConfig(
        atom_count=ATOMS, rule_count=rules, seed=seed, require=frozenset(require)
    )
    return random_program(cfg, uni)


def make_pair(seed, require=()):
    uni = Universe("abc")
    p = make(seed, uni, require=require)
    q = make(seed + 977201, uni, require=require)
    return p, q, uni


def rule_satisfied(y, r):
    return (r.pos & ~y) != 0 or (r.neg & y) != 0 or (r.head & y) != 0


@SETTINGS
@given(SEEDS)
def test_reduct_is_positive_and_idempotent(seed):
    uni = Universe("abc")
    p = make(seed, uni)
    for y in submasks(uni.full_mask):
        red = reduct(p, y)
        assert all(r.neg == 0 for r in red.rules)
        for z in submasks(uni.full_mask):
            assert reduct(red, z).rules == red.rules


@SETTINGS
@given(SEEDS)
def test_answer_sets_match_se_characterization(seed):
    uni = Universe("abc")
    p = make(seed, uni)
    assert sorted(answer_sets(p)) == sorted(sm_from_se(se_models(p, p.var)))


@SETTINGS
@given(SEEDS)
def test_ue_models_are_maximal_se_models(seed):
    uni = Universe("abc")
    p = make(seed, uni)
    over = uni.full_mask
    se = set(se_models(p, over))
    ue = set(ue_models(p, over))
    assert ue <= se
    assert {(y, y) for x, y in se if x == y} <= ue
    for x, y in ue:
        if x == y:
            continue
        assert not any(
            (z, y) in se for z in submasks(y) if x < z != y and (x & ~z) == 0
        )


@SETTINGS
@given(SEEDS)
def test_equivalence_hierarchy(seed):
    p, q, uni = make_pair(seed)
    strong = decide_strong(p, q).equivalent
    uniform = decide_uniform(p, q).equivalent
    ordinary = decide_ordinary(p, q).equivalent
    assert not (strong and not uniform)
    assert not (uniform and not ordinary)


@SETTINGS
@given(SEEDS, st.integers(min_value=0, max_value=7))
def test_relativized_hierarchy(seed, a):
    p, q, uni = make_pair(seed)
    a &= uni.full_mask
    rs = decide_rel_strong(p, q, a, method="generic").equivalent
    ru = decide_rel_uniform(p, q, a, method="generic").equivalent
    ordinary = decide_ordinary(p, q).equivalent
    assert not (rs and not ru)
    assert not (ru and not ordinary)


@SETTINGS
@given(SEEDS)
def test_uniform_equivalence_is_mutual_ue_consequence(seed):
    p, q, uni = make_pair(seed)
    over = p.var | q.var
    uep, ueq = ue_models(p, over), ue_models(q, over)

    def entails(pairs, rules):
        return all(
            is_se_model(Program(frozenset([r]), uni), x, y)
            for x, y in pairs
            for r in rules
        )

    mutual = entails(uep, q.rules) and entails(ueq, p.rules)
    assert (set(uep) == set(ueq)) == mutual


@SETTINGS
@given(SEEDS, st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_adding_a_rule_is_neutral_iff_ue_consequence(seed, h, b, n):
    uni = Universe("abc")
    p = make(seed, uni)
    r = Rule(h, b, n)
    ext = Program(p.rules | {r}, uni)
    assert decide_uniform(p, ext).equivalent == ue_consequence(p, r)


@SETTINGS
@given(SEEDS, st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_consequence_chain(seed, h, b, n):
    uni = Universe("abc")
    p = make(seed, uni)
    over = uni.full_mask
    r = Rule(h, b, n)
    cautious_everywhere = all(
        all(rule_satisfied(y, r) for y in answer_sets(p | facts_program(f, uni)))
        for f in submasks(over)
    )
    cautious = all(rule_satisfied(y, r) for y in answer_sets(p))
    classical = all(rule_satisfied(m, r) for m in classical_models(p, over))
    if ue_consequence(p, r):
        assert cautious_everywhere
    if cautious_everywhere:
        assert cautious
    if classical:
        assert cautious


@SETTINGS
@given(SEEDS)
def test_ue_class_check_characterizes_classical_collapse(seed):
    uni = Universe("abc")
    p = make(seed, uni, rules=3)
    over = uni.full_mask
    rules = [
        Rule(h, b, n)
        for h in submasks(over)
        for b in submasks(over)
        for n in submasks(over)
    ]

    def classical_ent(r):
        return all(rule_satisfied(m, r) for m in classical_models(p, over))

    coincide = all(ue_consequence(p, r) == classical_ent(r) for r in rules)
    assert ue_class_check(p) == coincide


@SETTINGS
@given(SEEDS, st.integers(min_value=0, max_value=7))
def test_positive_totals_determine_relativized_models(seed, a):
    p, q, uni = make_pair(seed, require=["positive"])
    over = uni.full_mask
    a &= over
    sp, sq = set(ase_models(p, a, over)), set(ase_models(q, a, over))
    totals_equal = {pr for pr in sp if pr.total} == {pr for pr in sq if pr.total}
    assert totals_equal == (sp == sq)


@SETTINGS
@given(SEEDS, st.integers(min_value=0, max_value=15))
def test_hcf_shift_preserves_relativized_uniform(seed, a):
    from aspeq.transforms import shift_program

    uni = Universe("abcd")
    cfg = GeneratorConfig(
        atom_count=4, rule_count=4, seed=seed, require=frozenset(["hcf"])
    )
    p = random_program(cfg, uni)
    a &= uni.full_mask
    assert decide_rel_uniform(p, shift_program(p), a, method="generic").equivalent

import pytest

from aspeq import harness
from aspeq.classify import classify
from aspeq.harness import (
    PROPERTIES,
    GeneratorConfig,
    _se_set,
    _setup,
    context_se_classes,
    exhaustive_sweep,
    fact_classes,
    family_programs,
    family_rules,
    project,
    random_program,
    sm_from_se,
    strong_signature,
    uniform_signature,
    unary_classes,
    unary_signature,
)
from aspeq.se import se_models
from aspeq.semantics import CapacityError, answer_sets, submasks
from aspeq.syntax import Program, Rule, Universe, facts_program

from conftest import prog, random_pair


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(atom_count=0, rule_count=1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(atom_count=9, rule_count=1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(atom_count=2, rule_count=13, seed=0)


def test_random_program_deterministic():
    cfg = GeneratorConfig(atom_count=4, rule_count=5, seed=7)
    assert random_program(cfg).rules == random_program(cfg).rules
    other = GeneratorConfig(atom_count=4, rule_count=5, seed=8)
    # different seeds produce different programs for these parameters
    assert random_program(cfg).rules != random_program(other).rules


def test_random_program_honours_flags():
    for name in ("horn", "normal", "positive", "hcf", "unary", "definite", "disjunctive"):
        cfg = GeneratorConfig(atom_count=4, rule_count=4, seed=3, require=frozenset([name]))
        p = random_program(cfg)
        assert name in classify(p).flags


def test_random_program_rejects_contradictory_flags():
    cfg = GeneratorConfig(
        atom_count=4, rule_count=4, seed=0, require=frozenset(["disjunctive", "normal"])
    )
    with pytest.raises(ValueError):
        random_program(cfg)
    tiny = GeneratorConfig(atom_count=1, rule_count=4, seed=0, require=frozenset(["disjunctive"]))
    with pytest.raises(ValueError):
        random_program(tiny)


def test_family_sizes():
    uni = Universe(["a", "b"])
    rules = family_rules(uni.full_mask)
    # heads: any subset of size <= 2 (4), pos/neg: size <= 1 (3 each)
    assert len(rules) == 4 * 3 * 3
    progs = family_programs(uni, uni.full_mask, max_rules=1)
    assert len(progs) == 1 + len(rules)


def test_project():
    assert project(0b1010, [1, 3]) == 0b11
    assert project(0b1010, [0, 2]) == 0
    assert project(0b1, []) == 0


def test_sm_from_se_matches_answer_sets():
    for seed in range(40):
        p, _, uni, _ = random_pair(seed, atoms=4, max_rules=4)
        pairs = se_models(p, p.var)
        assert sm_from_se(pairs) == frozenset(answer_sets(p))


def test_uniform_signature_matches_direct():
    # one entry per fact set over the alphabet, in ascending mask order
    for seed in range(30):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4)
        over = uni.full_mask
        a = rng.randint(0, over)
        direct = tuple(frozenset(answer_sets(p | facts_program(f, uni))) for f in submasks(a))
        assert uniform_signature(p, a, over) == direct


def test_uniform_signature_equality_is_uniform_equivalence():
    from aspeq.se import decide_uniform

    for seed in range(30):
        p, q, uni, _ = random_pair(seed, atoms=3, max_rules=4)
        over = uni.full_mask
        same = uniform_signature(p, over, over) == uniform_signature(q, over, over)
        assert same == decide_uniform(p, q).equivalent


def test_signatures_check_over_like_se_models():
    # the signatures read SE-models by definition, with the checks of `se_models`
    uni = Universe(["a", "b"])
    p = prog("a :- b.", uni)
    for signature in (uniform_signature, strong_signature, unary_signature):
        with pytest.raises(ValueError):
            signature(p, 1, 1)
    big = Universe([f"v{i}" for i in range(25)])
    with pytest.raises(CapacityError):
        uniform_signature(Program(frozenset(), big), 0, big.full_mask)


def test_context_se_classes_bounds():
    with pytest.raises(ValueError):
        context_se_classes(3)
    with pytest.raises(ValueError):
        unary_classes(4)
    with pytest.raises(ValueError):
        fact_classes(7)
    one = context_se_classes(1)
    two = context_se_classes(2)
    assert [len(context_se_classes(k)) for k in range(3)] == [2, 5, 47]
    # the empty context class (all pairs) is always realized
    full = frozenset((x, y) for y in range(4) for x in submasks(y))
    assert full in two
    # one class per subset of the k facts and k*k single-body rules
    for k in range(3):
        assert len(unary_classes(k)) == 2 ** (k + k * k)
    # one class per fact set, and distinct fact sets give distinct classes
    for k in range(4):
        assert len(set(fact_classes(k))) == 2 ** k
    uni, over, progs = _setup(2, 2)
    for p in progs:
        assert _se_set(p.rules, over) == frozenset(se_models(p, over)), p.rules


def test_strong_and_unary_signatures_agree():
    from aspeq.equivalence import decide_rel_strong

    for seed in range(12):
        p, q, uni, rng = random_pair(seed, atoms=3, max_rules=3)
        over = uni.full_mask
        for a in submasks(over):
            if a.bit_count() > 2:
                continue
            s = strong_signature(p, a, over) == strong_signature(q, a, over)
            u = unary_signature(p, a, over) == unary_signature(q, a, over)
            d = decide_rel_strong(p, q, a, method="generic").equivalent
            assert s == u == d, (seed, uni.fmt(a))


def test_exhaustive_sweep_validation():
    with pytest.raises(ValueError):
        exhaustive_sweep(4, "hierarchy")
    # a negative count would slice the atom names from the end (a 7-atom family)
    with pytest.raises(ValueError, match="1 to 3 atoms"):
        exhaustive_sweep(-1, "hierarchy")
    with pytest.raises(ValueError, match="1 to 3 atoms"):
        exhaustive_sweep(0, "hierarchy")
    with pytest.raises(ValueError, match="must not be negative"):
        exhaustive_sweep(2, "hierarchy", -1)
    with pytest.raises(ValueError):
        exhaustive_sweep(2, "no-such-property")


def test_oversized_sweep_family_fails_before_it_is_built(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("family built past the cap")

    monkeypatch.setattr(harness, "family_programs", unbuilt)
    # 2 atoms, at most 3 rules: 1 + 36 + 630 + 7140 programs, past the 667 of 2 rules
    with pytest.raises(CapacityError, match="^7807 family programs exceed the sweep cap of 667$"):
        exhaustive_sweep(2, "hierarchy", 3)


# cases per property shape at 1, 2 and 3 atoms (default max_rules): family
# programs, ordered pairs, ordered pairs of positive programs, family rules
SWEEP_CASES = {1: (37, 1369, 121, 8), 2: (667, 444889, 6241, 36), 3: (113, 12769, 841, 112)}
SHAPE = {
    "ue-subset-se": 0, "answer-sets-se": 0, "ase-answer-sets": 0, "small-alphabet-collapse": 0,
    "hierarchy": 1, "uniform-oracle": 1, "unary-oracle": 1, "degenerate-alphabets": 1,
    "positive-collapse": 2, "shift-subset": 3, "shift-difference": 3,
}


def test_all_properties_pass_at_two_atoms():
    assert sorted(SHAPE) == sorted(PROPERTIES)
    for atoms in (2, 1, 3):
        for name in PROPERTIES:
            report = exhaustive_sweep(atoms, name)
            assert report.ok, (atoms, name, report.counterexamples[:3])
            assert report.checked == SWEEP_CASES[atoms][SHAPE[name]], (atoms, name)


@pytest.mark.parametrize("prop,atoms,name,broken", [
    ("answer-sets-se", 2, "answer_sets", lambda p: []),  # one program per case
    ("positive-collapse", 2, "a_minimal_models", lambda p, a, over: []),  # pairs
    ("shift-subset", 3, "shift_rule", lambda r: frozenset([Rule(0, 0, 0)])),  # one rule per case
])
def test_every_sweep_shape_stops_at_20_counterexamples(monkeypatch, prop, atoms, name, broken):
    monkeypatch.setattr(harness, name, broken)
    report = exhaustive_sweep(atoms, prop)
    assert len(report.counterexamples) == 20


@pytest.mark.parametrize("prop,name,broken,text", [
    ("uniform-oracle", "uniform_signature", lambda p, a, over: (), "uniform decider disagrees with fact-set oracle: "),
    ("unary-oracle", "unary_signature", lambda p, a, over: (), "rel-strong decider disagrees with unary oracle at {"),
    ("positive-collapse", "a_minimal_models", lambda p, a, over: [], "positive collapse fails at {"),
    ("degenerate-alphabets", "answer_sets", lambda p: [], "empty alphabet differs from ordinary: "),
])
def test_each_agreement_property_reports_a_broken_side(monkeypatch, prop, name, broken, text):
    # one side of the agreement made constant: the pairs that the other
    # side tells apart are counterexamples, in the property's own words
    monkeypatch.setattr(harness, name, broken)
    report = exhaustive_sweep(1, prop)
    assert report.counterexamples and report.counterexamples[0].startswith(text), report.counterexamples[:1]

import pytest

from aspeq.relativized import (
    ASEPair,
    a_minimal_models,
    ase_check_normal,
    ase_models,
    aue_check_hcf,
    aue_models,
    is_ase_model,
    valid_shape,
)
from aspeq.equivalence import _pairs_by_check
from aspeq.harness import _setup
from aspeq.se import se_models, ue_models
from aspeq.semantics import answer_sets, classical_models, minimal_models, submasks
from aspeq.syntax import Program, Rule, Universe, parse_program

from conftest import aue_direct, fmt_pairs, prog, random_pair

SHIFT_PAIR_Q = "a | b. a :- c. b :- c. :- not c. c :- a, b."
SHIFT_PAIR_QP = "a :- not b. b :- not a. a :- c. b :- c. :- not c. c :- a, b."

# the eight alphabet rows: alphabet -> (pairs of Q, pairs of Q')
ABC = ["({a},{a,b,c})", "({b},{a,b,c})", "({a,b,c},{a,b,c})"]
ABC_EMPTY = ["({},{a,b,c})"] + ABC
ALPHABET_ROWS = {
    ("a", "b", "c"): (ABC, ABC_EMPTY),
    ("a", "b"): (ABC, ABC_EMPTY),
    ("a", "c"): (["({},{a,b,c})", "({a},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
    ("b", "c"): (["({},{a,b,c})", "({b},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
    ("a",): ([], []),
    ("b",): ([], []),
    ("c",): (["({},{a,b,c})", "({a,b,c},{a,b,c})"],) * 2,
    (): ([], []),
}


def shift_pair_programs():
    uni = Universe(["a", "b", "c"])
    return prog(SHIFT_PAIR_Q, uni), prog(SHIFT_PAIR_QP, uni), uni


def sort_fmt(items):
    return sorted(items)


def test_ase_pair_shape():
    assert valid_shape(3, 3, 0)
    assert valid_shape(1, 7, 3)
    assert not valid_shape(3, 7, 3)  # x equals y & a
    assert not valid_shape(4, 7, 3)  # x outside the alphabet
    with pytest.raises(ValueError):
        ASEPair(3, 7, 3)
    assert not ASEPair(1, 7, 3).total and ASEPair(7, 7, 3).total


def test_shift_pair_all_alphabet_rows():
    q, qp, uni = shift_pair_programs()
    over = uni.full_mask
    for names, (want_q, want_qp) in ALPHABET_ROWS.items():
        a = uni.mask_of(list(names))
        assert sort_fmt(fmt_pairs(uni, ase_models(q, a, over))) == sort_fmt(want_q), names
        assert sort_fmt(fmt_pairs(uni, ase_models(qp, a, over))) == sort_fmt(want_qp), names


def test_shift_pair_aue_always_equal():
    q, qp, uni = shift_pair_programs()
    over = uni.full_mask
    for a in submasks(over):
        assert set(aue_models(q, a, over)) == set(aue_models(qp, a, over))


def test_empty_alphabet_totals_are_answer_sets():
    q, qp, uni = shift_pair_programs()
    for p in (q, qp):
        pairs = ase_models(p, 0, p.var)
        assert sorted(pr.y for pr in pairs) == sorted(answer_sets(p))
        assert all(pr.total for pr in pairs)


def test_full_alphabet_matches_se_and_ue():
    q, qp, uni = shift_pair_programs()
    over = uni.full_mask
    for p in (q, qp):
        assert {(pr.x, pr.y) for pr in ase_models(p, over, over)} == set(se_models(p, over))
        assert {(pr.x, pr.y) for pr in aue_models(p, over, over)} == set(ue_models(p, over))


def test_small_alphabet_ase_equals_aue():
    q, qp, uni = shift_pair_programs()
    over = uni.full_mask
    for p in (q, qp):
        for a in submasks(over):
            if a.bit_count() <= 1:
                assert ase_models(p, a, over) == aue_models(p, a, over)


def test_is_ase_model_spot():
    q, _, uni = shift_pair_programs()
    a = uni.mask_of(["a", "c"])
    over = uni.full_mask
    assert is_ase_model(q, ASEPair(0, over, a))
    assert is_ase_model(q, ASEPair(uni.mask_of(["a"]), over, a))
    assert not is_ase_model(q, ASEPair(uni.mask_of(["c"]), over, a))


def test_a_minimal_models():
    uni = Universe(["a", "b"])
    p = prog("b :- a.", uni)
    assert a_minimal_models(p, uni.mask_of(["a"]), uni.full_mask) == [0, uni.full_mask]
    assert sorted(a_minimal_models(p, 0, uni.full_mask)) == sorted(minimal_models(p))
    assert sorted(a_minimal_models(p, uni.full_mask, uni.full_mask)) == sorted(
        classical_models(p)
    )


def test_ase_check_normal_rejects_disjunction():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    with pytest.raises(ValueError):
        ase_check_normal(p, ASEPair(0, 0, 0))


def test_ase_check_normal_agrees_with_definition():
    for seed in range(60):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["normal"])
        over = uni.full_mask
        a = rng.randint(0, over)
        accepted = _pairs_by_check(a, over, lambda pr: ase_check_normal(p, pr, over))
        assert set(accepted) == set(ase_models(p, a, over)), seed


def test_default_over_is_the_program_atoms_and_the_alphabet():
    # the listings default to var(p) ∪ a and the membership checks to
    # var(p) ∪ a ∪ y; an alphabet atom outside var(p) widens both
    for seed in range(30):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=3, require=["normal"])
        a = rng.randint(0, uni.full_mask)
        over = p.var | a
        listed = ase_models(p, a)
        assert listed == ase_models(p, a, over), seed
        assert set(_pairs_by_check(a, over, lambda pr: ase_check_normal(p, pr))) == set(listed), seed
        listed = aue_models(p, a)
        assert listed == aue_models(p, a, over), seed
        assert set(_pairs_by_check(a, over, lambda pr: aue_check_hcf(p, pr))) == set(listed), seed


def test_aue_check_hcf_rejects_head_cycles():
    uni = Universe(["a", "b"])
    p = prog("a | b. a :- b. b :- a.", uni)
    with pytest.raises(ValueError):
        aue_check_hcf(p, ASEPair(0, 0, 0))


def test_aue_check_hcf_examples_and_agreement():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    ab = uni.full_mask
    assert aue_check_hcf(p, ASEPair(uni.mask_of(["a"]), ab, ab), ab)
    for seed in range(60):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["hcf"])
        over = uni.full_mask
        a = rng.randint(0, over)
        accepted = _pairs_by_check(a, over, lambda pr: aue_check_hcf(p, pr, over))
        assert set(accepted) == set(aue_models(p, a, over)), seed


def test_aue_models_match_direct_characterization_exhaustive():
    # the maximality filter against the direct A-UE characterization on
    # every program of the exhaustive sweeps, for every alphabet
    for atoms, max_rules in ((2, 2), (3, 1)):
        _, over, progs = _setup(atoms, max_rules)
        for p in progs:
            for a in submasks(over):
                assert aue_models(p, a, over) == aue_direct(p, a, over), (p.rules, a)


def test_non_closure_golden():
    # three mutually inequivalent programs whose pairwise unions share the
    # same relativized SE-models even though their own differ
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
        union = left | right
        assert {(pr.x, pr.y) for pr in ase_models(union, a, over)} == {(abc, abc)}

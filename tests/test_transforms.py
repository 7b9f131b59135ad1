from collections import deque
from itertools import combinations, islice

import pytest

from aspeq.equivalence import decide_ordinary, decide_rel_strong
from aspeq.harness import ATOM_NAMES, family_programs
from aspeq.se import decide_strong, decide_uniform, se_models
from aspeq.semantics import CapacityError, submasks
from aspeq.syntax import Program, Rule, Universe, bits, parse_program, render
from aspeq.transforms import (
    check_shift_safe,
    eliminate_constraints_negation,
    eliminate_constraints_positive,
    is_a_hcf,
    is_hcf,
    s_r,
    shift_one,
    shift_program,
    shift_rule,
)

from conftest import prog, random_pair, shift_safe_listing


def test_shift_rule():
    uni = Universe(["a", "b"])
    disj = Rule(uni.full_mask, 0, 0)
    a, b = uni.mask_of(["a"]), uni.mask_of(["b"])
    assert shift_rule(disj) == {Rule(a, 0, b), Rule(b, 0, a)}
    normal = Rule(a, b, 0)
    assert shift_rule(normal) == {normal}
    constraint = Rule(0, uni.full_mask, 0)
    assert shift_rule(constraint) == {constraint}


def test_shift_rule_overlapping_head_and_negbody():
    # a in both head and negative body: sets are unioned, no simplification
    uni = Universe(["a", "b"])
    a, b = uni.mask_of(["a"]), uni.mask_of(["b"])
    r = Rule(a | b, 0, a)
    assert shift_rule(r) == {Rule(a, 0, a | b), Rule(b, 0, a)}


def test_shift_program_produces_normal_variant():
    uni = Universe(["a", "b", "c"])
    q = prog("a | b. a :- c. b :- c. :- not c. c :- a, b.", uni)
    qp = prog("a :- not b. b :- not a. a :- c. b :- c. :- not c. c :- a, b.", uni)
    assert shift_program(q) == qp
    assert shift_program(qp) == qp  # normal programs are fixpoints
    disj = next(r for r in q.rules if r.head.bit_count() == 2)
    assert shift_one(q, disj) == qp
    with pytest.raises(ValueError):
        shift_one(qp, disj)


def test_s_r_example():
    uni = Universe(["a", "b"])
    r = Rule(uni.full_mask, 0, 0)
    assert s_r(r, uni.full_mask) == [(0, uni.full_mask)]
    assert s_r(Rule(uni.mask_of(["a"]), 0, 0), uni.full_mask) == []


def test_se_subset_and_difference_of_shift():
    # one-rule programs: SE(r) within SE(shift), difference exactly S_r
    uni = Universe(["a", "b", "c"])
    over = uni.full_mask
    for head in submasks(over):
        for pos in submasks(over):
            r = Rule(head, pos, 0)
            p = Program(frozenset([r]), uni)
            ps = Program(shift_rule(r), uni)
            se_p, se_ps = set(se_models(p, over)), set(se_models(ps, over))
            assert se_p <= se_ps
            assert se_ps - se_p == set(s_r(r, over))


def test_is_hcf():
    uni = Universe(["a", "b", "c"])
    assert is_hcf(prog("a | b. c :- a. c :- b.", uni))
    assert not is_hcf(prog("a | b. a :- b. b :- a.", uni))
    assert is_hcf(prog("a | b.", uni))


def test_is_a_hcf():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    assert is_a_hcf(p, 0) == is_hcf(p)
    # the clique over {a,b} creates the head cycle
    assert not is_a_hcf(p, uni.full_mask)
    assert is_a_hcf(p, uni.mask_of(["a"]))


def _has_head_cycle(p: Program, a: int) -> bool:
    """Definition: two head atoms of one rule reach each other along the
    edges b -> h (b in a rule's positive body, h != b in its head) plus the
    clique over ``a``; the paths are found by breadth-first search."""
    edges = {}
    for r in p.rules:
        for b in bits(r.pos):
            edges.setdefault(b, set()).update(h for h in bits(r.head) if h != b)
    for i in bits(a):
        edges.setdefault(i, set()).update(j for j in bits(a) if j != i)

    def reaches(s, t):
        seen, queue = {s}, deque([s])
        while queue:
            for v in edges.get(queue.popleft(), ()):
                if v == t:
                    return True
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return False

    return any(reaches(i, j) and reaches(j, i) for r in p.rules for i, j in combinations(bits(r.head), 2))


def test_hcf_matches_path_definition():
    uni = Universe(ATOM_NAMES[:2])
    cases = [(p, a) for p in family_programs(uni, uni.full_mask) for a in submasks(uni.full_mask)]
    for seed in range(300):
        p, _, uni, rng = random_pair(seed, atoms=3 + seed % 4, max_rules=8)
        cases += [(p, 0), (p, rng.randint(0, uni.full_mask)), (p, uni.full_mask)]
    cycles = 0
    for p, a in cases:
        cycle = _has_head_cycle(p, a)
        cycles += cycle
        assert is_a_hcf(p, a) == (not cycle), (p.rules, a)
        if a == 0:
            assert is_hcf(p) == (not cycle), p.rules
    assert 0 < cycles < len(cases)


def test_check_shift_safe_examples():
    uni = Universe(["a", "b"])
    excl = prog("a | b. :- a, b.", uni)
    disj = next(r for r in excl.rules if r.head)
    assert check_shift_safe(excl, disj, uni.full_mask)
    bare = prog("a | b.", uni)
    (r,) = bare.rules
    assert not check_shift_safe(bare, r, uni.full_mask)
    with pytest.raises(ValueError):
        check_shift_safe(bare, Rule(0, 0, 0), 0)
    # a rule not in p is reported before the cap; the alphabet alone can
    # take var(p) ∪ a past the cap
    with pytest.raises(ValueError):
        check_shift_safe(bare, Rule(0, 0, 0), (1 << 30) - 1)
    with pytest.raises(CapacityError):
        check_shift_safe(bare, r, (1 << 25) - 1)
    assert not check_shift_safe(bare, r, (1 << 24) - 1)


@pytest.mark.parametrize("atoms,max_rules,stride", [(2, 2, 1), (3, 1, 1), (3, 2, 13)])
def test_check_shift_safe_matches_the_gained_pair_listing(atoms, max_rules, stride):
    # every disjunctive rule of every family program (every stride-th
    # program-rule case), under every alphabet
    uni = Universe(ATOM_NAMES[:atoms])
    cases = [(p, r) for p in family_programs(uni, uni.full_mask, max_rules)
             for r in sorted(p.rules, key=lambda r: (r.head, r.pos, r.neg)) if r.head.bit_count() >= 2]
    unsafe = 0
    for p, r in islice(cases, 0, None, stride):
        for a in submasks(uni.full_mask):
            safe = check_shift_safe(p, r, a)
            assert safe == shift_safe_listing(p, r, a), (p.rules, r, a)
            unsafe += not safe
    assert unsafe


def test_a_hcf_implies_shift_safe_and_matches_decider():
    # the gained-pair characterization against the decider, and the
    # shipped check on the same inputs
    for seed in range(40):
        p, _, uni, rng = random_pair(seed, atoms=4, max_rules=4)
        a = rng.randint(0, uni.full_mask)
        for r in p.rules:
            if r.head.bit_count() < 2:
                continue
            safe = shift_safe_listing(p, r, a)
            v = decide_rel_strong(p, shift_one(p, r), a, method="generic")
            assert safe == v.equivalent
            assert check_shift_safe(p, r, a) == safe
            if is_a_hcf(p, a):
                assert safe


def test_eliminate_constraints_negation():
    uni = Universe(["a"])
    p = prog(":- not a.", uni)
    rewritten, alphabet = eliminate_constraints_negation(p)
    w = uni.mask_of(["w"])
    assert rewritten.rules == {Rule(w, 0, uni.mask_of(["a"]) | w)}
    assert alphabet == uni.full_mask & ~w
    clean = prog("a :- b.", Universe(["a", "b"]))
    assert eliminate_constraints_negation(clean)[0].rules == clean.rules
    with pytest.raises(ValueError):
        eliminate_constraints_negation(prog("w.", Universe(["w"])), "w")


def test_fresh_atom_numbers_past_taken_names_and_checks_given_ones():
    uni = Universe(["a", "w", "w1"])
    p = prog(":- a.", uni)
    rewritten, alphabet = eliminate_constraints_negation(p)
    w2 = uni.mask_of(["w2"])
    assert rewritten.rules == {Rule(w2, uni.mask_of(["a"]), w2)}
    assert alphabet == uni.full_mask & ~w2
    for rewrite in (eliminate_constraints_negation, eliminate_constraints_positive):
        with pytest.raises(ValueError, match="invalid atom name"):
            rewrite(p, "1w")


def test_eliminate_constraints_negation_preserves_rel_strong():
    for seed in range(25):
        p, _, uni, _ = random_pair(seed, atoms=3, max_rules=4)
        rewritten, alphabet = eliminate_constraints_negation(p)
        assert decide_rel_strong(p, rewritten, alphabet, method="generic").equivalent


def test_eliminate_constraints_positive():
    uni = Universe(["a"])
    p = prog("a. :- a.", uni)
    out = eliminate_constraints_positive(p)
    a, w = uni.mask_of(["a"]), uni.mask_of(["w"])
    assert out.rules == {Rule(a, 0, 0), Rule(w, a, 0), Rule(a, w, 0)}
    uni2 = Universe(["a"])
    no_constraints = parse_program("a.", uni2)
    out2 = eliminate_constraints_positive(no_constraints)
    assert out2.rules == {
        Rule(1, 0, 0),
        Rule(1, uni2.mask_of(["w"]), 0),
    }
    with pytest.raises(ValueError):
        eliminate_constraints_positive(prog("a :- not b.", Universe()))


def test_eliminate_constraints_positive_preserves_ordinary_verdicts():
    for seed in range(40):
        p, q, uni, _ = random_pair(seed, atoms=3, max_rules=4, require=["positive"])
        before = decide_ordinary(p, q).equivalent
        rp = eliminate_constraints_positive(p, "w")
        rq = eliminate_constraints_positive(q, "w")
        assert decide_ordinary(rp, rq).equivalent == before


def test_hcf_shift_preserves_uniform_equivalence():
    for seed in range(40):
        p, _, uni, _ = random_pair(seed, atoms=4, max_rules=4, require=["hcf"])
        assert decide_uniform(p, shift_program(p)).equivalent


def test_strong_shift_equivalence_iff_no_gained_pair():
    # whole-program variant: strongly equivalent to the shift iff no
    # shifted SE-model lies in any rule's gained set
    for seed in range(40):
        p, _, uni, _ = random_pair(seed, atoms=3, max_rules=3)
        over = uni.full_mask
        shifted = shift_program(p)
        se_shift = set(se_models(shifted, over))
        gained_hit = any(
            (x, y) in se_shift
            for r in p.rules
            if r.head.bit_count() >= 2
            for x, y in s_r(r, over)
            if (x, y) not in se_models(p, over)
        )
        assert decide_strong(p, shifted).equivalent == (
            set(se_models(p, over)) == se_shift
        )
        if not gained_hit and all(
            set(s_r(r, over)) & se_shift <= set(se_models(p, over))
            for r in p.rules
        ):
            pass  # consistency of the helper sets only

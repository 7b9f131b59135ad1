"""The per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings,
checked against the per-pair definitions on the exhaustive families, and
the full-alphabet search for the first differing row against the plain
row search."""

import random
from itertools import combinations_with_replacement, islice, product

import pytest

from aspeq.equivalence import _first_difference, decide
from aspeq.harness import ATOM_NAMES, family_programs
from aspeq.relativized import ASEPair, ase_models, aue_models, is_ase_model, valid_shape
from aspeq.se import is_se_model, se_models, ue_models
from aspeq.semantics import CapacityError, _ase_pairs, _maximal_row, _row, submasks
from aspeq.syntax import Program, Rule, Universe, facts_program

from conftest import prog, random_pair, row_search

# the exhaustive sweeps' families: 2 atoms with up to two rules, 3 atoms
# with up to one
FAMILIES = [(2, 2), (3, 1)]


def _family(atoms: int, max_rules: int):
    uni = Universe(ATOM_NAMES[:atoms])
    return uni.full_mask, family_programs(uni, uni.full_mask, max_rules)


def _candidates(over: int, a: int) -> list[tuple[int, int]]:
    # every A-SE-interpretation over `over`, in (y, x) order
    return [(x, y) for y in submasks(over) for x in submasks(y) if valid_shape(x, y, a)]


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_se_models_match_definition(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        expect = [(x, y) for x, y in _candidates(over, over) if is_se_model(p, x, y)]
        assert se_models(p, over) == expect, p.rules


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_ase_models_match_definition(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        for a in submasks(over):
            expect = [(x, y) for x, y in _candidates(over, a) if is_ase_model(p, ASEPair(x, y, a))]
            assert [(pr.x, pr.y) for pr in ase_models(p, a, over)] == expect, (a, p.rules)


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_ue_models_are_full_alphabet_aue_models(atoms, max_rules):
    over, progs = _family(atoms, max_rules)
    for p in progs:
        assert ue_models(p, over) == [(pr.x, pr.y) for pr in aue_models(p, over, over)], p.rules


def test_over_must_cover_program_atoms():
    uni = Universe(["a", "b"])
    p = prog("a :- not b. b :- not a.", uni)
    a = uni.mask_of(["a"])
    with pytest.raises(ValueError, match="cover var"):
        se_models(p, a)
    with pytest.raises(ValueError, match="cover var"):
        ase_models(p, a, a)
    with pytest.raises(ValueError, match="cover var"):
        ue_models(p, a)
    with pytest.raises(ValueError, match="cover var"):
        aue_models(p, a, a)


@pytest.mark.parametrize("atoms,max_rules,stride", [(2, 2, 101), (3, 1, 23)])
def test_first_difference_is_the_least_differing_y(atoms, max_rules, stride):
    # the Y at which `decide` stops and the strong witness search starts
    over, progs = _family(atoms, max_rules)
    alphabets = list(submasks(over))
    listings = {}
    for i, p in enumerate(progs):
        for a in alphabets:
            listings[i, a] = (ase_models(p, a, over), aue_models(p, a, over))
    for i, j in islice(product(range(len(progs)), repeat=2), 0, None, stride):
        for a in alphabets:
            for kind, row in enumerate((_row, _maximal_row)):
                diff = set(listings[i, a][kind]) ^ set(listings[j, a][kind])
                expect = min((pr.y for pr in diff), default=None)
                got = _first_difference(progs[i], progs[j], a, over, row)
                assert got == expect, (progs[i].rules, progs[j].rules, a, row.__name__)


def test_pair_kernel_checks_its_arguments_at_the_call():
    uni = Universe(["a", "b"])
    p = prog("a :- not b. b :- not a.", uni)
    with pytest.raises(ValueError, match="cover var"):
        _ase_pairs(p, uni.full_mask, uni.mask_of(["a"]))
    big = Universe([f"v{i}" for i in range(25)])
    with pytest.raises(CapacityError):
        _ase_pairs(facts_program(big.full_mask, big), big.full_mask, big.full_mask)


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_full_alphabet_search_matches_the_row_search_on_the_families(atoms, max_rules):
    # every unordered pair (the search is symmetric in p and q), both rows;
    # the reference's rows are listed once per program
    over, progs = _family(atoms, max_rules)
    rows = [[(tuple(_row(p, over, y)), tuple(_maximal_row(p, over, y))) for y in submasks(over)] for p in progs]
    ys = list(submasks(over))
    for i, j in combinations_with_replacement(range(len(progs)), 2):
        for kind, row in enumerate((_row, _maximal_row)):
            expect = next((y for y, rp, rq in zip(ys, rows[i], rows[j]) if rp[kind] != rq[kind]), None)
            assert _first_difference(progs[i], progs[j], over, over, row) == expect, (progs[i].rules, progs[j].rules, kind)


def _random_rule(rng: random.Random, n: int) -> Rule:
    # biased towards the special shapes: facts, constraints, tautologies
    # (head ∩ pos ≠ ∅) and rules whose body is inconsistent (pos ∩ neg ≠ ∅)
    def mask(p: float) -> int:
        return sum(1 << i for i in range(n) if rng.random() < p)

    head, pos, neg = mask(0.25), mask(0.2), mask(0.15)
    shape = rng.randrange(8)
    if shape == 0:
        head = 0
    elif shape == 1:
        pos = neg = 0
    elif shape == 2:
        head |= 1 << rng.randrange(n)
        pos |= head & -head
    elif shape == 3:
        pos |= 1 << rng.randrange(n)
        neg |= pos & -pos
    return Rule(head, pos, neg)


def _near_pair(rng: random.Random, n: int) -> tuple[Program, Program]:
    # Q is P with one or two rules dropped, added or weakened
    uni = Universe([f"v{i}" for i in range(n)])
    rules = [_random_rule(rng, n) for _ in range(rng.randint(1, n + 3))]
    q = list(rules)
    for _ in range(rng.randint(1, 2)):
        change = rng.randrange(3)
        if change == 0 and len(q) > 1:
            q.pop(rng.randrange(len(q)))
        elif change == 1:
            q.append(_random_rule(rng, n))
        else:
            r, b = rng.choice(q), 1 << rng.randrange(n)
            q.append(rng.choice([Rule(r.head | b, r.pos, r.neg), Rule(r.head, r.pos | b, r.neg), Rule(r.head, r.pos, r.neg | b)]))
    return Program(frozenset(rules), uni), Program(frozenset(q), uni)


def _split(p: Program, a: int) -> Program:
    # each rule r becomes r with the extra body literal `a` and r with `not a`
    rules = {Rule(r.head, r.pos | a, r.neg) for r in p.rules} | {Rule(r.head, r.pos, r.neg | a) for r in p.rules}
    return Program(frozenset(rules), p.universe)


def _check_against_row_search(p: Program, q: Program) -> None:
    over = p.var | q.var
    for row in (_row, _maximal_row):
        assert _first_difference(p, q, over, over, row) == row_search(p, q, over, over, row), (p.rules, q.rules, row.__name__)


@pytest.mark.parametrize("seed", range(4))
def test_full_alphabet_search_matches_the_row_search_on_near_pairs(seed):
    rng = random.Random(seed)
    for i in range(60):
        _check_against_row_search(*_near_pair(rng, 5 + i % 5))


def test_full_alphabet_search_matches_the_row_search_on_pairs_sharing_no_rule():
    for seed in range(150):
        p, q, uni, _ = random_pair(seed, atoms=5, max_rules=6)
        _check_against_row_search(p, Program(q.rules - p.rules, uni))
        # an atom outside p, so that no split rule is one of p's
        _check_against_row_search(p, _split(p, 1 << uni.intern("z")))


@pytest.mark.parametrize("mode", ["strong", "uniform"])
def test_equal_programs_over_the_cap_raise(mode):
    # the capacity check comes before the search notices that p = q
    big = Universe([f"v{i}" for i in range(25)])
    p = facts_program(big.full_mask, big)
    with pytest.raises(CapacityError):
        decide(p, p, mode)

"""The per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings,
checked against the per-pair definitions on the exhaustive families, and
the full-alphabet search for the first differing row against the plain
row search."""

import random
import tracemalloc
from itertools import combinations_with_replacement, islice, product

import pytest

from aspeq.equivalence import _first_difference, decide
from aspeq.harness import ATOM_NAMES, family_programs
from aspeq.relativized import ASEPair, ase_models, aue_models, is_ase_model, valid_shape
from aspeq.se import is_se_model, se_models, ue_models
from aspeq.semantics import CapacityError, _ase_pairs, _maximal_row, _row, _strict_down, submasks
from aspeq.syntax import Program, Rule, Universe, facts_program

from conftest import chain, pair, prog, random_pair, row_search

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
    # both rows, both argument orders
    over = p.var | q.var
    for row in (_row, _maximal_row):
        expect = row_search(p, q, over, over, row)
        for first, second in ((p, q), (q, p)):
            assert _first_difference(first, second, over, over, row) == expect, (first.rules, second.rules, row.__name__)


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


def _allneg(k: int) -> str:
    # x_i :- not y_i.  y_i :- not x_i.  x_{i+1} :- x_i, not y_{i+1}.
    return " ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." + (f" x{i + 1} :- x{i}, not y{i + 1}." if i + 1 < k else "")
                    for i in range(k))


def _structured_pair(family: str, k: int) -> tuple[str, str]:
    if family == "shift-first":
        return chain(k), chain(k, 0)
    if family == "shift-last":
        return chain(k), chain(k, k - 1)
    if family == "weakened-copies":  # a disjunction with an extra body atom, a rule with an extra head atom
        return chain(k), f"{chain(k)} x0 | y0 :- y{k - 1}. x{k - 1} | x0 :- x{k - 2}, not y{k - 1}."
    if family == "constraint":
        return chain(k), f"{chain(k)} :- x{k - 1}, y{k - 1}."
    last = f"y{k - 1} :- not x{k - 1}."
    return _allneg(k), _allneg(k).replace(last, f"y{k - 1} | x0 :- not x{k - 1}.")


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("family", ["shift-first", "shift-last", "weakened-copies", "constraint", "allneg-weakened"])
def test_full_alphabet_search_matches_the_row_search_on_structured_families(family, k):
    # the chain (b) against its shift at the first and the last disjunction,
    # against itself plus two weakened copies and against itself plus
    # `:- x_{k-1}, y_{k-1}.`; the all-negated chain against one weakened rule
    p, q, _ = pair(*_structured_pair(family, k))
    _check_against_row_search(p, q)


@pytest.mark.parametrize("text_p,text_q", [
    ("a.", "a :- not a."),  # a one-atom Y, where the tables hold two bits
    ("a :- a. a | b :- a, c. a | b. c :- a, not b.", "a :- a. a | b :- a, c. a | b. c | b :- a."),
    ("a | b. c :- a.", "a | b. c :- a. :- a, c."),
    ("a | b. c :- a. d :- not c.", "a | b. c :- a. d :- not c. :- b, not d."),
    ("c. a | b :- c. a :- b.", "c. a :- c."),  # at Y = {a, c} the live head holds b, outside Y
    ("c. a | b :- c.", "c. a :- c."),
], ids=["one-atom", "shared-tautology", "constraint", "constraint-with-negation",
        "head-outside-equal", "head-outside"])
def test_full_alphabet_search_matches_the_row_search_on_table_edge_cases(text_p, text_q):
    _check_against_row_search(*pair(text_p, text_q)[:2])


def test_full_alphabet_search_over_no_atoms():
    uni = Universe()
    empty, falsity = Program(frozenset(), uni), Program(frozenset([Rule(0, 0, 0)]), uni)
    for q, expect in ((empty, None), (falsity, 0)):
        _check_against_row_search(empty, q)
        assert _first_difference(empty, q, 0, 0, _maximal_row) == expect


def test_strict_down_holds_the_sets_below_a_member():
    rng = random.Random(5)
    for m in range(5):
        xs = range(1 << m)
        tables = [sum(1 << x for x in xs if x >> j & 1) for j in range(m)]
        for _ in range(40):
            s = rng.getrandbits(1 << m)
            expect = sum(1 << x for x in xs if any(s >> z & 1 and z != x and z & x == x for z in xs))
            assert _strict_down(s, tables) == expect, (m, bin(s))


def test_full_alphabet_search_keeps_no_memory():
    # the coordinate tables live for one call: nothing that grows with the
    # input outlives the search
    p, q, uni = pair(chain(7), chain(7, 6))
    over = uni.full_mask
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _first_difference(p, q, over, over, _maximal_row) is None
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024, kept


@pytest.mark.parametrize("mode", ["strong", "uniform"])
def test_equal_programs_over_the_cap_raise(mode):
    # the capacity check comes before the search notices that p = q
    big = Universe([f"v{i}" for i in range(25)])
    p = facts_program(big.full_mask, big)
    with pytest.raises(CapacityError):
        decide(p, p, mode)

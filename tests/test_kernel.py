"""The per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings,
checked against the per-pair definitions on the exhaustive families, and
the search for the differing rows against the per-X rows of ``conftest``,
at the full, the empty and partial alphabets."""

import random
import tracemalloc
from itertools import combinations, combinations_with_replacement, islice, product

import pytest

from aspeq.equivalence import decide
from aspeq.harness import ATOM_NAMES, family_programs
from aspeq.relativized import ASEPair, ase_models, aue_models, is_ase_model, valid_shape
from aspeq.se import is_se_model, se_models, ue_models
from aspeq.semantics import CapacityError, _ase_pairs, _differences, _first_difference, _literals, _row, _strict_down, submasks
from aspeq.syntax import Program, Rule, Universe, facts_program

from conftest import chain, pair, per_x_maximal_row, per_x_row, prog, random_pair, row_differences

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
            for maximal in (False, True):
                diff = set(listings[i, a][maximal]) ^ set(listings[j, a][maximal])
                expect = min((pr.y for pr in diff), default=None)
                got = _first_difference(progs[i], progs[j], a, over, maximal)
                assert got == expect, (progs[i].rules, progs[j].rules, a, maximal)


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_rows_match_the_per_x_rows_on_the_families(atoms, max_rules):
    # the table rows under the listings and the strong witness
    over, progs = _family(atoms, max_rules)
    for p in progs:
        lits = _literals(p.rules)
        for a, y in product(submasks(over), repeat=2):
            assert _row(lits, a, y, False, []) == per_x_row(p, a, y), (p.rules, a, y)
            assert _row(lits, a, y, True, []) == per_x_maximal_row(p, a, y), (p.rules, a, y)


def test_pair_kernel_checks_its_arguments_at_the_call():
    uni = Universe(["a", "b"])
    p = prog("a :- not b. b :- not a.", uni)
    with pytest.raises(ValueError, match="cover var"):
        _ase_pairs(p, uni.full_mask, uni.mask_of(["a"]))
    big = Universe([f"v{i}" for i in range(25)])
    with pytest.raises(CapacityError):
        _ase_pairs(facts_program(big.full_mask, big), big.full_mask, big.full_mask)


@pytest.mark.parametrize("atoms,max_rules", FAMILIES)
def test_search_matches_the_per_x_row_search_on_the_families(atoms, max_rules):
    # both rows; at the full alphabet every unordered pair (the search is
    # symmetric in p and q), at ∅ and at one partial alphabet every 4th;
    # the per-X rows are listed once per program and alphabet
    over, progs = _family(atoms, max_rules)
    ys = list(submasks(over))
    for a, stride in ((over, 1), (0, 4), (over & ~1, 4)):
        rows = [[(per_x_row(p, a, y), per_x_maximal_row(p, a, y)) for y in ys] for p in progs]
        for i, j in islice(combinations_with_replacement(range(len(progs)), 2), 0, None, stride):
            for maximal in (False, True):
                expect = next((y for y, rp, rq in zip(ys, rows[i], rows[j]) if rp[maximal] != rq[maximal]), None)
                got = _first_difference(progs[i], progs[j], a, over, maximal)
                assert got == expect, (progs[i].rules, progs[j].rules, a, maximal)


@pytest.mark.parametrize("atoms,max_rules,stride", [(2, 2, 23), (3, 1, 3)])
def test_differences_are_every_differing_y_on_the_families(atoms, max_rules, stride):
    # every Y where the per-X rows differ, ascending, in both argument
    # orders, at the full alphabet, ∅ and one partial alphabet; strided,
    # since reading every Y costs more than stopping at the first
    over, progs = _family(atoms, max_rules)
    ys = list(submasks(over))
    for a in (over, 0, over & ~1):
        rows = [[(per_x_row(p, a, y), per_x_maximal_row(p, a, y)) for y in ys] for p in progs]
        for i, j in islice(combinations(range(len(progs)), 2), 0, None, stride):
            for maximal in (False, True):
                expect = [y for y, rp, rq in zip(ys, rows[i], rows[j]) if rp[maximal] != rq[maximal]]
                for first, second in ((i, j), (j, i)):
                    got = list(_differences(progs[first], progs[second], a, over, maximal))
                    assert got == expect, (progs[first].rules, progs[second].rules, a, maximal)


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


def _check_against_row_search(p: Program, q: Program, *alphabets: int) -> None:
    # every differing Y and the first, both rows, both argument orders, at
    # the full alphabet and at `alphabets`
    over = p.var | q.var
    for a in (over, *alphabets):
        for maximal in (False, True):
            expect = row_differences(p, q, a, over, maximal)
            for first, second in ((p, q), (q, p)):
                case = (first.rules, second.rules, a, maximal)
                assert list(_differences(first, second, a, over, maximal)) == expect, case
                assert _first_difference(first, second, a, over, maximal) == next(iter(expect), None), case


def _partial(rng: random.Random, over: int) -> int:
    # a random alphabet, possibly reaching past `over`
    return rng.getrandbits(over.bit_length() + 1)


@pytest.mark.parametrize("seed", range(4))
def test_search_matches_the_per_x_row_search_on_near_pairs(seed):
    rng = random.Random(seed)
    for i in range(60):
        p, q = _near_pair(rng, 5 + i % 5)
        _check_against_row_search(p, q, 0, _partial(rng, p.var | q.var))


def test_search_matches_the_per_x_row_search_on_pairs_sharing_no_rule():
    rng = random.Random(150)
    for seed in range(150):
        p, q, uni, _ = random_pair(seed, atoms=5, max_rules=6)
        _check_against_row_search(p, Program(q.rules - p.rules, uni), 0, _partial(rng, p.var | q.var))
        # an atom outside p, so that no split rule is one of p's
        _check_against_row_search(p, _split(p, 1 << uni.intern("z")), _partial(rng, uni.full_mask))


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
def test_search_matches_the_per_x_row_search_on_structured_families(family, k):
    # the chain (b) against its shift at the first and the last disjunction,
    # against itself plus two weakened copies and against itself plus
    # `:- x_{k-1}, y_{k-1}.`; the all-negated chain against one weakened
    # rule; at the full alphabet, ∅ and the x-atoms
    p, q, uni = pair(*_structured_pair(family, k))
    _check_against_row_search(p, q, 0, uni.mask_of([f"x{i}" for i in range(k)]))


def _weakened_copies(rng: random.Random, rules: list[Rule], n: int, k: int) -> list[Rule]:
    # copies of k of `rules`, each with one extra head atom or body literal
    out = []
    for r in rng.sample(rules, min(k, len(rules))):
        b = 1 << rng.randrange(n)
        out.append(rng.choice([Rule(r.head | b, r.pos, r.neg), Rule(r.head, r.pos | b, r.neg), Rule(r.head, r.pos, r.neg | b)]))
    return out


def _without_subsumed(p: Program, q: Program) -> tuple[Program, Program]:
    # each side without the unshared rules that a shared rule subsumes: its
    # positive body, negative body and head each a subset of theirs
    shared = p.rules & q.rules

    def kept(rules: frozenset[Rule]) -> frozenset[Rule]:
        return frozenset(r for r in rules if r in shared or not any(
            not (s.pos & ~r.pos or s.neg & ~r.neg or s.head & ~r.head) for s in shared))
    return Program(kept(p.rules), p.universe), Program(kept(q.rules), q.universe)


def _subsumed_pairs(seed: int):
    # se-equal's kind (Q is P plus weakened copies of its rules), then pairs
    # whose unshared rules mix weakened copies of shared rules, random rules
    # and weakened copies of those, over 3 to 5 atoms
    rng = random.Random(seed)
    for i in range(30):
        n = 3 + i % 3
        uni = Universe([f"v{j}" for j in range(n)])
        shared = [_random_rule(rng, n) for _ in range(rng.randint(1, n + 2))]
        if i < 10:
            yield Program(frozenset(shared), uni), Program(frozenset(shared + _weakened_copies(rng, shared, n, 2)), uni)
            continue
        sides = []
        for _ in range(2):
            own = [_random_rule(rng, n) for _ in range(rng.randint(1, 2))]
            extra = _weakened_copies(rng, shared, n, rng.randint(1, 2)) + _weakened_copies(rng, own, n, 1)
            sides.append(Program(frozenset(shared + own + extra), uni))
        yield tuple(sides)
    p, q, _ = pair(*_structured_pair("weakened-copies", 3))
    yield p, q


@pytest.mark.parametrize("seed", range(3))
def test_search_ignores_unshared_rules_that_a_shared_rule_subsumes(seed):
    # such a rule's cube lies inside the shared rule's wherever its body
    # holds, and a Y failing it fails the shared rule, so dropping it
    # changes no row, at every alphabet, for both row kinds
    telling = 0  # pairs that lose a rule and differ somewhere
    for p, q in _subsumed_pairs(seed):
        lean_p, lean_q = _without_subsumed(p, q)
        over, differ = p.var | q.var, False
        for a in submasks(over):
            for maximal in (False, True):
                ys = list(_differences(p, q, a, over, maximal))
                assert list(_differences(lean_p, lean_q, a, over, maximal)) == ys, (p.rules, q.rules, a, maximal)
                differ = differ or bool(ys)
        telling += differ and len(lean_p.rules) + len(lean_q.rules) < len(p.rules) + len(q.rules)
    assert telling >= 5


@pytest.mark.parametrize("text_p,text_q", [
    ("a.", "a :- not a."),  # a one-atom Y, where the tables hold two bits
    ("a :- a. a | b :- a, c. a | b. c :- a, not b.", "a :- a. a | b :- a, c. a | b. c | b :- a."),
    ("a | b. c :- a.", "a | b. c :- a. :- a, c."),
    ("a | b. c :- a. d :- not c.", "a | b. c :- a. d :- not c. :- b, not d."),
    ("c. a | b :- c. a :- b.", "c. a :- c."),  # at Y = {a, c} the live head holds b, outside Y
    ("c. a | b :- c.", "c. a :- c."),
    # at A = {b}, Y = {a, b}: pulling X = {a} down to ∅ must clear a's
    # coordinate, or {a}, no part of A, stays in P's row, and the equal
    # rows read as different
    ("a :- b.", "a :- b. b :- a."),
    # a body with `a` and `not a` holds at every Y: at Y = {a} the rule,
    # shared or one side's own, must not read as failing
    ("b :- a, not a. a.", "b :- a, not a."),
    ("a | c. b :- a, not a.", "a | c."),
    # both sides' own rules are live with equal cubes at every Y without d
    # (F_p = F_q), and only P's at the Ys with d
    ("a | b. c :- a.", "a | b. c :- a, not d."),
    # Q's own rule is a weakened copy of a shared rule, whose cube covers it
    ("a | b. c :- a.", "a | b. c :- a. c :- a, b, not d."),
    # at Y = {a, b, c}, X = {b} fails Q's own rule and no shared rule
    ("a | b. c :- a.", "a | b. c :- a. c :- b."),
], ids=["one-atom", "shared-tautology", "constraint", "constraint-with-negation",
        "head-outside-equal", "head-outside", "projection-clears",
        "inconsistent-body-shared", "inconsistent-body-own",
        "equal-own-cubes", "covered-by-one-shared", "survives-shared"])
def test_search_matches_the_per_x_row_search_on_table_edge_cases(text_p, text_q):
    p, q, uni = pair(text_p, text_q)
    _check_against_row_search(p, q, *submasks(uni.full_mask))


def test_search_over_no_atoms():
    uni = Universe()
    empty, falsity = Program(frozenset(), uni), Program(frozenset([Rule(0, 0, 0)]), uni)
    for q, expect in ((empty, None), (falsity, 0)):
        _check_against_row_search(empty, q)
        assert _first_difference(empty, q, 0, 0, True) == expect


def test_search_tells_uniform_from_strong_where_the_down_closure_matters():
    # Q is P without `d :- a.`: uniformly but not strongly equivalent; a
    # one-step strict down-closure flags Y = {a, b, c, d} in the uniform search
    p, q, uni = pair("b :- a, not c. b :- a, c. b | c :- a, d. d :- a. d :- b.",
                     "b :- a, not c. b :- a, c. b | c :- a, d. d :- b.")
    over = uni.full_mask
    _check_against_row_search(p, q)
    assert _first_difference(p, q, over, over, True) is None
    assert _first_difference(p, q, over, over, False) is not None
    assert decide(p, q, "uniform").equivalent and not decide(p, q, "strong").equivalent


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
        assert _first_difference(p, q, over, over, True) is None
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

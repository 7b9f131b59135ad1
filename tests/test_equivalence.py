import os
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest

import aspeq
from aspeq.equivalence import (
    METHODS,
    MODES,
    Verdict,
    VerificationError,
    Witness,
    _check_witness,
    _fact_contexts,
    _first_witness,
    brute_force_oracle,
    build_strong_witness,
    build_uniform_witness,
    decide,
    decide_horn_bounded,
    decide_horn_rel,
    decide_ordinary,
    decide_rel_strong,
    decide_rel_uniform,
    unary_rules,
)
from aspeq.harness import ATOM_NAMES, _program_se, _setup, family_programs, uniform_signature
from aspeq.relativized import ase_models, aue_models
from aspeq.semantics import CapacityError, answer_sets, is_horn, submasks
from aspeq.syntax import Program, Rule, Universe, bits, facts_program, parse_program

from conftest import chain, first_witness_two_lists, pair, prog, random_pair, strong_witness_reference


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(True, "nope", 0, None)
    with pytest.raises(ValueError):
        Verdict(True, "strong", 0, Witness(Program(frozenset(), Universe()), 0, "left"))
    with pytest.raises(ValueError):
        Witness(Program(frozenset(), Universe()), 0, "middle")
    assert Verdict(True, "rel-strong", 1, None, "horn") == Verdict(True, "rel-strong", 1, None, "generic")


def test_decide_ordinary():
    p, q, uni = pair("a | b.", "a :- not b. b :- not a.")
    assert decide_ordinary(p, q).equivalent
    p4, q4, _ = pair("a :- not b. a :- b.", "a :- not c. a :- c.")
    assert decide_ordinary(p4, q4).equivalent
    r, s, uni2 = pair("a.", "a. b.")
    v = decide_ordinary(r, s)
    assert not v.equivalent
    assert v.witness.side == "left"
    assert v.witness.distinguishing == uni2.mask_of(["a"])
    assert v.witness.context.rules == frozenset()


def test_ordinary_two_inconsistent_programs_compare_equal():
    p, q, _ = pair("a :- not a.", "b :- not b.")
    assert answer_sets(p) == [] and answer_sets(q) == []
    assert decide_ordinary(p, q).equivalent


def test_rel_strong_shift_pair_rows():
    p, q, uni = pair(
        "a | b. a :- c. b :- c. :- not c. c :- a, b.",
        "a :- not b. b :- not a. a :- c. b :- c. :- not c. c :- a, b.",
    )
    v = decide_rel_strong(p, q, uni.mask_of(["a", "b"]))
    assert not v.equivalent
    assert v.witness.distinguishing == uni.full_mask
    assert decide_rel_strong(p, q, uni.mask_of(["a", "c"])).equivalent
    assert decide_rel_strong(p, q, uni.mask_of(["b", "c"])).equivalent
    assert decide_rel_strong(p, q, uni.mask_of(["c"])).equivalent
    assert not decide_rel_strong(p, q, uni.full_mask).equivalent


def test_rel_strong_empty_alphabet_is_ordinary():
    for seed in range(30):
        p, q, _, _ = random_pair(seed, atoms=3, max_rules=4)
        assert decide_rel_strong(p, q, 0).equivalent == decide_ordinary(p, q).equivalent
        assert decide_rel_uniform(p, q, 0).equivalent == decide_ordinary(p, q).equivalent


def test_rel_uniform_excluded_middle_rows():
    # P gains c from joint a,b; Q forbids it, so adding both facts separates
    p, q, uni = pair("a | b.", "a :- not b. b :- not a. c :- a, b. :- c.")
    for names in ([], ["a"], ["b"]):
        assert decide_rel_uniform(p, q, uni.mask_of(names)).equivalent, names
    v = decide_rel_uniform(p, q, uni.mask_of(["a", "b"]))
    assert not v.equivalent
    assert v.witness.context.rules == {Rule(1, 0, 0), Rule(2, 0, 0)}
    assert not decide_rel_uniform(p, q, uni.full_mask).equivalent


def test_single_atom_alphabet_strong_equals_uniform():
    for seed in range(40):
        p, q, uni, rng = random_pair(seed, atoms=3, max_rules=4)
        for a in submasks(uni.full_mask):
            if a.bit_count() > 1:
                continue
            vs = decide_rel_strong(p, q, a, method="generic")
            vu = decide_rel_uniform(p, q, a, method="generic")
            assert vs.equivalent == vu.equivalent


def test_rel_uniform_cross_check_containment():
    # rel-uniform equivalence holds iff the A-UE-models of each program are
    # A-SE-models of the other
    for seed in range(25):
        p, q, uni, rng = random_pair(seed, atoms=3, max_rules=4)
        a = rng.randint(0, uni.full_mask)
        over = p.var | q.var
        a_eff = a & over
        up, uq = set(aue_models(p, a_eff, over)), set(aue_models(q, a_eff, over))
        sp, sq = set(ase_models(p, a_eff, over)), set(ase_models(q, a_eff, over))
        contained = up <= sq and uq <= sp
        assert contained == decide_rel_uniform(p, q, a, method="generic").equivalent, seed


def test_auto_matches_generic_on_exhaustive_sweeps():
    # auto runs the generic enumeration itself unless both programs are
    # Horn, so the Horn pairs are the ones where the verdicts could differ
    for atoms, max_rules in ((2, 2), (3, 1)):
        _, over, progs = _setup(atoms, max_rules)
        horn = [p for p in progs if is_horn(p)]
        for p in horn:
            for q in horn:
                for a in submasks(over):
                    for decider in (decide_rel_strong, decide_rel_uniform):
                        auto = decider(p, q, a)
                        generic = decider(p, q, a, method="generic")
                        assert auto.method == "horn" and generic.method == "generic"
                        assert auto.equivalent == generic.equivalent, (p.rules, q.rules, a)


def test_auto_routes_non_horn_pairs_to_generic():
    normal = pair("a :- not b. b :- not a.", "a :- not b. b :- not a. c :- a.")
    hcf = pair("a | b.", "a :- not b. b :- not a.")
    cyclic = pair("a | b. a :- b. b :- a.", "a. b.")
    for p, q, uni in (normal, hcf, cyclic):
        for decider in (decide_rel_strong, decide_rel_uniform):
            assert decider(p, q, uni.full_mask).method == "generic"
    p, q, uni = pair("a. b :- a.", "a. b.")
    assert decide_rel_strong(p, q, uni.full_mask).method == "horn"
    assert decide_rel_uniform(p, q, uni.full_mask, method="generic").method == "generic"
    assert decide_horn_bounded(p, q, uni.full_mask).method == "horn-bounded"
    assert decide_ordinary(p, q).method is None


def test_unknown_method_is_rejected():
    p, q, uni = pair("a | b.", "a :- not b. b :- not a.")
    for method in ("normal", "hcf", "Generic", ""):
        for decider in (decide_rel_strong, decide_rel_uniform):
            with pytest.raises(ValueError, match="unknown method"):
                decider(p, q, uni.full_mask, method=method)
        for mode in MODES:
            with pytest.raises(ValueError, match="unknown method"):
                decide(p, q, mode, uni.full_mask, method)
    for mode in ("weak", "rel-ordinary", ""):
        with pytest.raises(ValueError, match="unknown mode"):
            decide(p, q, mode)


def test_strong_and_uniform_are_full_alphabet_rows():
    # at A = var(p ∪ q): the verdicts against the SE-models by definition
    # and the fact-set signature, the witnesses against the reference
    # searches; the non-relativized modes take no route, whatever `method`
    # says
    for seed in range(40):
        p, q, uni, _ = random_pair(seed, atoms=3, max_rules=4)
        over, ab = uni.full_mask, p.var | q.var
        facts = [facts_program(f, uni) for f in _fact_contexts(ab)]
        expect = {
            "strong": (_program_se(p, over) == _program_se(q, over), lambda: strong_witness_reference(p, q, ab)),
            "uniform": (uniform_signature(p, ab, over) == uniform_signature(q, ab, over),
                        lambda: first_witness_two_lists(p, q, facts)),
        }
        for mode, (equivalent, witness) in expect.items():
            w = None if equivalent else witness()
            for method in METHODS:
                v = decide(p, q, mode, method=method)
                assert (v.equivalent, v.alphabet, v.witness) == (equivalent, ab, w), (seed, mode)
                assert v.mode == mode and v.method is None
        for method in METHODS:
            assert decide(p, q, "ordinary", method=method).method is None


def test_strong_witness_matches_the_reference_search():
    # a sample of the exhaustive families' pairs, every alphabet: the first
    # candidate context (what `decide` returns into the verdict and
    # `build_strong_witness` returns on its own) is the one the search with
    # an answer-set test per candidate keeps
    for (atoms, max_rules), stride in (((2, 2), 101), ((3, 1), 23)):
        _, over, progs = _setup(atoms, max_rules)
        for p, q in islice(product(progs, progs), 0, None, stride):
            for a in submasks(over):
                v = decide_rel_strong(p, q, a, method="generic")
                if not v.equivalent:
                    assert v.witness == strong_witness_reference(p, q, v.alphabet), (p.rules, q.rules, a)
                    assert build_strong_witness(p, q, v.alphabet) == v.witness, (p.rules, q.rules, a)


def test_strong_witness_falls_through_to_the_second_argument_order():
    # at Y = {a} the row of P has the X {} that Q lacks, but no X below Y
    # models Q's reduct {a.}: the witness comes from Q first
    p, q, uni = pair(":- not a.", "a.")
    a = uni.mask_of(["a"])
    for v in (decide(p, q, "strong"), decide_rel_strong(p, q, a, method="generic")):
        w = v.witness
        assert (w.side, w.context.rules, w.distinguishing) == ("right", frozenset(), a)
    assert build_strong_witness(p, q, a) == w


@pytest.mark.parametrize("k,shifted", [(3, 2), (4, 1), (4, 3), (5, 2), (5, 4)])
def test_strong_witness_matches_the_reference_on_shifted_chains(k, shifted):
    # 6-10 atoms, beyond the exhaustive families: the alphabet-equal X'
    # scan of the builder, under the full alphabet (no atom off it) and
    # under the x-atoms plus the shifted y-atom
    p, q, uni = pair(chain(k), chain(k, shifted))
    xs = uni.mask_of([f"x{i}" for i in range(k)])
    for a in (uni.full_mask, xs | uni.mask_of([f"y{shifted}"])):
        v = decide(p, q, "rel-strong", a, "generic")
        assert not v.equivalent
        assert v.witness == strong_witness_reference(p, q, v.alphabet), (k, shifted, uni.fmt(a))


def test_decide_horn_rel_example():
    p, q, uni = pair("g :- v. :- v, vb.", "g :- v. :- v, vb. :- g.")
    a = uni.mask_of(["v", "vb"])
    v = decide_horn_rel(p, q, a)
    assert not v.equivalent
    assert v.witness.context.rules == {Rule(uni.mask_of(["v"]), 0, 0)}
    assert decide_horn_rel(p, prog("g :- v. :- v, vb.", uni), a).equivalent
    with pytest.raises(ValueError):
        decide_horn_rel(prog("a | b.", uni), p, a)


def test_horn_deciders_check_their_input_before_enumerating():
    # a 21-atom Horn chain: every guard fires before any loop runs
    uni = Universe([f"x{i}" for i in range(21)])
    p = Program(frozenset(Rule(1 << (i + 1), 1 << i, 0) for i in range(20)), uni)
    q = prog(":- x0.", uni)
    full = uni.full_mask
    with pytest.raises(ValueError, match="^alphabet too large for fact-set enumeration$"):
        decide_horn_rel(p, q, full)
    with pytest.raises(ValueError, match="^both programs must be Horn$"):
        decide_horn_bounded(p, prog("x0 | x1.", uni), full)
    with pytest.raises(ValueError, match="^too many atoms outside the alphabet$"):
        decide_horn_bounded(p, q, 0)
    with pytest.raises(ValueError, match="^alphabet too large$"):
        decide_horn_bounded(p, q, full)


def test_decide_horn_bounded_agrees_with_enumeration():
    for seed in range(60):
        p, q, uni, rng = random_pair(seed, atoms=4, max_rules=4, require=["horn"])
        a = rng.randint(0, uni.full_mask)
        assert (
            decide_horn_bounded(p, q, a).equivalent
            == decide_horn_rel(p, q, a).equivalent
        )


def test_decide_horn_bounded_leaves_the_universe_alone():
    p, q, uni = pair("v :- a. :- a, b.", "v :- a. :- v, b. w :- v.")
    names, full = list(uni.names), uni.full_mask
    for a in submasks(full):
        decide_horn_bounded(p, q, a)
    assert uni.names == names and len(uni) == len(names) and uni.full_mask == full


def test_decide_horn_bounded_uniform_witness_gap_regression():
    # equivalent pair where no single W works uniformly for U={v}; the
    # exact per-alphabet fallback must still report equivalence
    p, q, uni = pair("v :- a. :- a, b.", "v :- a. :- v, b.")
    a = uni.mask_of(["a", "b"])
    assert decide_horn_bounded(p, q, a).equivalent
    assert decide_horn_rel(p, q, a).equivalent


@pytest.mark.parametrize("a", [0, 0b1111, 0b1_0110_0101_0010], ids=["empty", "contiguous", "gapped"])
def test_fact_contexts_come_by_size_then_by_mask(a):
    assert list(_fact_contexts(a)) == sorted(submasks(a), key=lambda m: (m.bit_count(), m))


def _literal_uniform_witness(p, q, a):
    # the definition: every fact set over `a`, smallest first, each read
    # over every Y up to the first answer set of one side only
    return _first_witness(p, q, (facts_program(f, p.universe) for f in _fact_contexts(a)))


def _check_uniform_witness(p, q, a):
    expect = _literal_uniform_witness(p, q, a)
    assert decide(p, q, "rel-uniform", a, "generic").witness == expect, (p.rules, q.rules, a)
    if expect is None:
        with pytest.raises(AssertionError):
            build_uniform_witness(p, q, a)
    else:
        assert build_uniform_witness(p, q, a) == expect, (p.rules, q.rules, a)
    return expect


@pytest.mark.parametrize("atoms", range(3, 9))
def test_uniform_witness_matches_the_literal_fact_set_scan(atoms):
    # at the full alphabet, ∅, a partial one and one reaching past
    # var(p ∪ q), where the search runs at a & var(p ∪ q)
    for seed in range(30):
        p, q, uni, rng = random_pair(100 * atoms + seed, atoms=atoms, max_rules=atoms)
        over = p.var | q.var
        past = over | 1 << uni.intern("z")
        for a in (over, 0, rng.randint(0, over) & over, past):
            _check_uniform_witness(p, q, a)
        assert decide(p, q, "uniform").witness == _literal_uniform_witness(p, q, over)


@pytest.mark.parametrize("k", [3, 4])
def test_uniform_witness_with_facts_matches_the_literal_scan(k):
    # (b+c): no answer set tells the chain from the chain with `:- x, y` at
    # its end; the smallest separating fact set is not empty
    p, q, uni = pair(chain(k), f"{chain(k)} :- x{k - 1}, y{k - 1}.")
    over = uni.full_mask
    w = _check_uniform_witness(p, q, over)
    assert w is not None and w.context.rules
    assert decide(p, q, "uniform").witness == w
    _check_uniform_witness(p, q, uni.mask_of([f"x{k - 1}", f"y{k - 1}"]))


def test_decide_horn_bounded_witness_is_the_literal_scan():
    found = 0
    for seed in range(60):
        p, q, uni, rng = random_pair(seed, atoms=5, max_rules=5, require=["horn"])
        a = rng.randint(0, uni.full_mask)
        v = decide_horn_bounded(p, q, a)
        assert v.witness == _literal_uniform_witness(p, q, a), (p.rules, q.rules, a)
        found += v.witness is not None
    assert found > 10


def test_brute_force_oracle_modes():
    p, q, uni = pair("a | b.", "a :- not b. b :- not a.")
    ab = uni.full_mask
    assert brute_force_oracle(p, q, 0, "ordinary").equivalent
    # the empty-context scan gives the decider's verdict and witness
    for seed in range(60):
        p2, q2, _, _ = random_pair(seed, atoms=4, max_rules=4)
        assert brute_force_oracle(p2, q2, 0, "ordinary") == decide_ordinary(p2, q2), seed
    assert brute_force_oracle(p, q, ab, "uniform").equivalent
    v = brute_force_oracle(p, q, ab, "strong")
    assert not v.equivalent
    with pytest.raises(ValueError):
        brute_force_oracle(p, q, ab, "weak")
    big = Universe([f"x{i}" for i in range(13)])
    wide = prog("x0.", big)
    with pytest.raises(ValueError):
        brute_force_oracle(wide, wide, big.full_mask, "uniform")
    with pytest.raises(ValueError):
        brute_force_oracle(p, q, uni.mask_of(["a", "b"]) | (1 << uni.intern("c")) | (1 << uni.intern("d")), "strong")


def test_ordinary_row_search_matches_the_empty_context_scan():
    # `decide` reads ordinary equivalence off the rel-strong rows at A = ∅;
    # the oracle scans the answer sets with no context at all
    _, _, progs = _setup(2, 2)
    found = 0
    for p, q in islice(product(progs, progs), 0, None, 23):
        v = decide(p, q, "ordinary")
        assert v == brute_force_oracle(p, q, 0, "ordinary"), (p.rules, q.rules)
        found += v.witness is not None
    assert found > 10000


def test_unary_rules_count():
    uni = Universe(["a", "b", "c"])
    a = uni.full_mask
    rules = unary_rules(a)
    assert len(rules) == 3 + 9  # facts plus all single-body rules incl. p :- p
    assert len(set(rules)) == len(rules)


def test_witness_builders_produce_valid_witnesses():
    for seed in range(60):
        p, q, uni, rng = random_pair(seed, atoms=3, max_rules=4)
        a = rng.randint(0, uni.full_mask)
        vs = decide_rel_strong(p, q, a, method="generic")
        if not vs.equivalent:
            w = vs.witness
            keeper, loser = (p, q) if w.side == "left" else (q, p)
            assert w.distinguishing in answer_sets(keeper | w.context)
            assert w.distinguishing not in answer_sets(loser | w.context)
            assert all(r.neg == 0 and r.pos.bit_count() <= 1 for r in w.context.rules)
        vu = decide_rel_uniform(p, q, a, method="generic")
        if not vu.equivalent:
            w = vu.witness
            assert all(r.pos == 0 and r.neg == 0 for r in w.context.rules)


def _unary_contexts(a: int, uni: Universe) -> list[Program]:
    # the contexts of `brute_force_oracle` in "strong" mode
    rules = unary_rules(a)
    return [Program(frozenset(rules[i] for i in bits(k)), uni) for k in range(1 << len(rules))]


@pytest.mark.parametrize("kind,stride", [("facts", 101), ("unary", 307)])
def test_first_witness_matches_the_two_list_search(kind, stride):
    # the one-Y scan stops at the least answer set on one side only
    uni = Universe(ATOM_NAMES[:2])
    progs = family_programs(uni, uni.full_mask, 2)
    found = 0
    for a in submasks(uni.full_mask):
        if kind == "facts":
            contexts = [facts_program(f, uni) for f in _fact_contexts(a)]
        else:
            contexts = _unary_contexts(a, uni)
        for i, j in islice(product(range(len(progs)), repeat=2), a, None, stride):
            p, q = progs[i], progs[j]
            w = _first_witness(p, q, contexts)
            assert w == first_witness_two_lists(p, q, contexts), (p.rules, q.rules, a)
            found += w is not None
    assert found > 1000


def test_first_witness_checks_capacity_before_any_y(monkeypatch):
    big = Universe([f"v{i}" for i in range(25)])
    over_cap = facts_program(big.full_mask, big)
    empty = Program(frozenset(), big)

    def no_scan(y, p):  # fails fast where a scan of 2^25 Ys would start
        raise AssertionError(f"Y {y} scanned past the cap")

    monkeypatch.setattr("aspeq.equivalence.is_answer_set", no_scan)
    with pytest.raises(CapacityError):
        _first_witness(empty, empty, [over_cap])
    with pytest.raises(CapacityError):
        decide(over_cap, empty, "ordinary")
    with pytest.raises(CapacityError):
        _check_witness(empty, over_cap, Witness(empty, 0, "right"))


def test_check_witness_rejects_a_tampered_witness():
    p, q, uni = pair("a.", "a. b.")
    w = decide_ordinary(p, q).witness
    _check_witness(p, q, w)
    with pytest.raises(VerificationError):
        _check_witness(p, q, Witness(w.context, w.distinguishing, "right"))
    with pytest.raises(VerificationError):
        _check_witness(p, q, Witness(w.context, uni.full_mask, w.side))


def test_check_witness_survives_optimized_mode():
    # `python -O` strips asserts; the re-verification must still raise
    src = Path(aspeq.__file__).resolve().parent.parent
    code = (
        "from aspeq.equivalence import VerificationError, Witness, _check_witness, decide_ordinary\n"
        "from aspeq.syntax import Universe, parse_program\n"
        "uni = Universe()\n"
        "p, q = parse_program('a.', uni), parse_program('a. b.', uni)\n"
        "w = decide_ordinary(p, q).witness\n"
        "try:\n"
        "    _check_witness(p, q, Witness(w.context, w.distinguishing, 'right'))\n"
        "except VerificationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_witness_builders_raise_on_equivalent_input():
    p, q, uni = pair("a.", "a.")
    with pytest.raises(AssertionError):
        build_strong_witness(p, q, uni.full_mask)
    with pytest.raises(AssertionError):
        build_uniform_witness(p, q, uni.full_mask)


def test_witness_builders_search_var_p_q_at_an_alphabet_past_the_cap():
    # a 2-atom pair in a 25-atom universe: only the alphabet is past the cap
    uni = Universe(["a", "b", *(f"v{i}" for i in range(23))])
    p, q, a = parse_program("a :- b.", uni), Program(frozenset(), uni), uni.full_mask
    strong, uniform = (decide(p, q, mode, a, "generic").witness for mode in ("rel-strong", "rel-uniform"))
    assert strong is not None and uniform is not None
    assert build_strong_witness(p, q, a) == strong
    assert build_uniform_witness(p, q, a) == uniform


def test_deciders_agree_with_oracles_small():
    for seed in range(40):
        p, q, uni, rng = random_pair(seed, atoms=3, max_rules=3)
        a = rng.randint(0, uni.full_mask)
        assert (
            decide_rel_uniform(p, q, a, method="generic").equivalent
            == brute_force_oracle(p, q, a, "uniform").equivalent
        )
        assert (
            decide_rel_strong(p, q, a, method="generic").equivalent
            == brute_force_oracle(p, q, a, "strong").equivalent
        )

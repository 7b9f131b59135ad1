import pytest

from aspeq.semantics import (
    CapacityError,
    answer_sets,
    bound_sets,
    check_capacity,
    classical_models,
    horn_entails,
    horn_least_model,
    horn_satisfiable,
    is_answer_set,
    is_model,
    minimal_models,
    proper_submasks,
    reduct,
    satisfies,
    submasks,
)
from aspeq.harness import ATOM_NAMES, GeneratorConfig, family_programs, random_program
from aspeq.syntax import Program, Rule, Universe, bits, parse_program

from conftest import pair, prog, random_pair


def masks(uni, *names_groups):
    return [uni.mask_of(g) for g in names_groups]


def test_satisfies():
    uni = Universe(["a", "b"])
    disj = Rule(uni.mask_of(["a", "b"]), 0, 0)
    assert satisfies(uni.mask_of(["a"]), disj)
    assert not satisfies(0, disj)
    constraint = Rule(0, uni.mask_of(["a", "b"]), 0)
    assert not satisfies(uni.full_mask, constraint)
    assert satisfies(uni.mask_of(["a"]), constraint)


def test_reduct():
    uni = Universe(["a", "b"])
    p = prog("a :- not b.", uni)
    assert reduct(p, uni.mask_of(["a"])).rules == {Rule(uni.mask_of(["a"]), 0, 0)}
    assert reduct(p, uni.mask_of(["b"])).rules == frozenset()
    q2 = prog("a :- not b. b :- not a.", uni)
    assert reduct(q2, uni.full_mask).rules == frozenset()


def test_reduct_idempotent_and_positive():
    uni = Universe()
    p = prog("a :- b, not c. c | d :- not a.", uni)
    for y in submasks(uni.full_mask):
        red = reduct(p, y)
        assert all(r.neg == 0 for r in red.rules)
        assert reduct(red, 0).rules == red.rules


def test_classical_models():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    assert classical_models(p) == masks(uni, ["a"], ["b"], ["a", "b"])
    p4 = prog("a :- not b. a :- b.", uni)
    assert classical_models(p4) == masks(uni, ["a"], ["a", "b"])
    bot = Program(frozenset([Rule(0, 0, 0)]), uni)
    assert classical_models(bot, uni.full_mask) == []


def test_classical_models_rejects_small_over():
    uni = Universe(["a", "b"])
    p = prog("a :- b.", uni)
    with pytest.raises(ValueError):
        classical_models(p, uni.mask_of(["a"]))


def test_minimal_models():
    uni = Universe(["a", "b"])
    p = prog("a | b.", uni)
    assert minimal_models(p) == masks(uni, ["a"], ["b"])


def test_answer_sets_examples():
    uni = Universe(["a", "b"])
    assert answer_sets(prog("a | b.", uni)) == masks(uni, ["a"], ["b"])
    r = "a :- b. b :- a."
    assert answer_sets(prog("a | b. " + r, uni)) == [uni.full_mask]
    assert answer_sets(prog("a :- not b. b :- not a. " + r, uni)) == []


def test_answer_sets_empty_program_regression():
    # the empty program has the empty answer set (strict subsets of the
    # empty interpretation do not include itself)
    uni = Universe()
    assert answer_sets(Program(frozenset(), uni)) == [0]
    assert list(proper_submasks(0)) == []


def test_answer_sets_of_falsity():
    uni = Universe()
    assert answer_sets(Program(frozenset([Rule(0, 0, 0)]), uni)) == []


def _answer_set_by_definition(y: int, p: Program) -> bool:
    return is_model(y, p) and y in minimal_models(reduct(p, y), p.var | y)


def _check_is_answer_set(p: Program) -> int:
    """Compare on every y over var(p), and on each with one atom outside
    var(p) added; return the number of answer sets."""
    var = p.var
    outside = ~var & (var + 1)  # the least atom id not in var(p)
    for y in submasks(var):
        assert is_answer_set(y, p) == _answer_set_by_definition(y, p), (p.rules, y)
        assert not is_answer_set(y | outside, p) and not _answer_set_by_definition(y | outside, p)
    return sum(is_answer_set(y, p) for y in submasks(var))


def test_is_answer_set_matches_the_definition_on_the_family():
    uni = Universe(ATOM_NAMES[:2])
    found = sum(_check_is_answer_set(p) for p in family_programs(uni, uni.full_mask, 2))
    assert found > 300


def test_is_answer_set_matches_the_definition_on_random_programs():
    found = 0
    for seed in range(150):
        p, q, _, _ = random_pair(seed, atoms=5, max_rules=7)
        found += _check_is_answer_set(p) + _check_is_answer_set(q)
    assert found > 100


def test_is_answer_set_at_the_empty_interpretation():
    uni = Universe()
    assert is_answer_set(0, Program(frozenset(), uni))
    assert not is_answer_set(0, Program(frozenset([Rule(0, 0, 0)]), uni))


def test_submask_orders():
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(proper_submasks(0b101)) == [0b100, 0b001, 0b000]
    assert list(submasks(0)) == [0]
    # a mask with gaps: every pick of its bit positions, ascending
    mask = 0b1011001
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    reference = sorted(sum(1 << positions[j] for j in range(len(positions)) if k >> j & 1)
                       for k in range(1 << len(positions)))
    assert list(submasks(mask)) == reference
    # 16 bits spread over 32 positions
    wide = list(submasks(0xAAAAAAAA))
    assert len(set(wide)) == len(wide) == 1 << 16
    assert wide == sorted(wide) and all(s & ~0xAAAAAAAA == 0 for s in wide)


def test_capacity_guard():
    uni = Universe(f"x{i}" for i in range(25))
    with pytest.raises(CapacityError):
        check_capacity(uni.full_mask)
    p = Program(frozenset([Rule(uni.full_mask, 0, 0)]), uni)
    with pytest.raises(CapacityError):
        answer_sets(p)


def test_horn_least_model():
    uni = Universe(["a", "b"])
    assert horn_least_model(prog("a. b :- a.", uni)) == uni.full_mask
    assert horn_least_model(prog("a. :- a.", uni)) is None
    assert horn_least_model(prog("b :- a.", uni)) == 0
    with pytest.raises(ValueError):
        horn_least_model(prog("a | b.", uni))
    assert horn_satisfiable(prog("b :- a.", uni))


def test_horn_least_model_pins_read_as_added_rules():
    # atoms pinned true act as facts, atoms pinned false as one `:- i.` each
    uni = Universe("abcd")
    constraints = 0
    for seed in range(100):
        p = random_program(GeneratorConfig(4, 1 + seed % 6, seed, frozenset(["horn"])), uni)
        constraints += any(r.head == 0 for r in p.rules)
        for f in submasks(uni.full_mask):
            for z in submasks(uni.full_mask):
                added = {Rule(1 << i, 0, 0) for i in bits(f)} | {Rule(0, 1 << i, 0) for i in bits(z)}
                want = horn_least_model(Program(p.rules | added, uni))
                assert horn_least_model(p, f, z) == want
                assert horn_satisfiable(p, f, z) == (want is not None)
    assert constraints > 20


def test_horn_entails():
    uni = Universe(["a", "b", "c"])
    p = prog("b :- a. c :- b.", uni)
    assert horn_entails(p, Rule(uni.mask_of(["c"]), uni.mask_of(["a"]), 0))
    assert not horn_entails(p, Rule(uni.mask_of(["a"]), uni.mask_of(["c"]), 0))
    # a constraint is entailed iff its body is contradictory with p
    q = prog("b :- a. :- b.", uni)
    assert horn_entails(q, Rule(0, uni.mask_of(["a"]), 0))
    with pytest.raises(ValueError):
        horn_entails(p, Rule(1, 0, 2))


def test_bound_sets():
    uni = Universe(["a", "b"])
    y, u = uni.mask_of(["a"]), uni.full_mask
    subset, strict, equal = bound_sets(y, u, uni)
    kill_b = Rule(0, uni.mask_of(["b"]), 0)
    assert subset.rules == {kill_b}
    assert strict.rules == {kill_b, Rule(0, uni.mask_of(["a"]), 0)}
    assert equal.rules == {kill_b, Rule(uni.mask_of(["a"]), 0, 0)}


def test_bound_sets_empty_y_uses_falsity():
    uni = Universe(["a"])
    _, strict, _ = bound_sets(0, uni.full_mask, uni)
    assert Rule(0, 0, 0) in strict.rules
    assert not horn_satisfiable(strict)


def test_bound_sets_requires_subset():
    uni = Universe(["a", "b"])
    with pytest.raises(ValueError):
        bound_sets(uni.full_mask, uni.mask_of(["a"]), uni)


def test_answer_sets_are_models_positive_are_minimal():
    from conftest import random_pair

    for seed in range(40):
        p, _, uni, _ = random_pair(seed, atoms=4, max_rules=5)
        for y in answer_sets(p):
            assert is_model(y, p)
        pos, _, uni2, _ = random_pair(seed, atoms=4, max_rules=5, require=["positive"])
        assert sorted(answer_sets(pos)) == sorted(minimal_models(pos))


def test_horn_least_model_rejects_non_horn_under_any_pins():
    uni = Universe(["a", "b"])
    for text in ("a | b.", "a :- not b.", ":- not a.", "a. b :- a. a | b :- b."):
        p = prog(text, uni)
        for f in submasks(uni.full_mask):
            for z in submasks(uni.full_mask):
                with pytest.raises(ValueError, match="not Horn"):
                    horn_least_model(p, f, z)
                with pytest.raises(ValueError, match="not Horn"):
                    horn_satisfiable(p, f, z)

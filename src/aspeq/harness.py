"""Random program generation, exhaustive sweeps, fast definitional oracles.

``exhaustive_sweep`` runs each ``PROPERTIES`` entry, a case source and a
check, over a bounded rule family (heads up to two atoms, at most one
positive and one negative body atom): its programs, their ordered pairs or
its rules.  The "fast oracle" helpers compute the same verdicts as literal
context enumeration but factor the work through SE-model sets: a context
acts on a program only through its SE-models over the alphabet.  They read
those SE-models by definition (``_se_set``), not through the rows that
``decide`` compares.  The class tables (``context_se_classes``,
``fact_classes``, ``unary_classes``) are cached per size.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from random import Random
from typing import Callable, Collection, Iterable, Optional

from .classify import classify
from .equivalence import unary_rules
from .relativized import a_minimal_models, ase_models, aue_models
from .se import se_models, ue_models
from .semantics import CapacityError, _checked_over, answer_sets, satisfies, submasks
from .syntax import Program, Rule, Universe, _Record, bits, project
from .transforms import s_r, shift_rule

ATOM_NAMES = "abcdefgh"


class GeneratorConfig(_Record):
    __slots__ = ("atom_count", "rule_count", "seed", "require")

    def __init__(self, atom_count: int, rule_count: int, seed: int, require: frozenset[str] = frozenset()):
        if not 1 <= atom_count <= 8:
            raise ValueError("atom_count must be within 1..8")
        if not 0 <= rule_count <= 12:
            raise ValueError("rule_count must be within 0..12")
        self._init(atom_count, rule_count, seed, require)


def random_program(cfg: GeneratorConfig, universe: Optional[Universe] = None) -> Program:
    """Deterministic random program satisfying the requested class flags."""
    rng = Random(cfg.seed)
    uni = universe if universe is not None else Universe(ATOM_NAMES[: cfg.atom_count])
    atoms = [uni.intern(n) for n in ATOM_NAMES[: cfg.atom_count]]
    req = set(cfg.require)
    if "disjunctive" in req and (req & {"normal", "horn", "definite", "unary"} or cfg.atom_count < 2 or cfg.rule_count < 1):
        raise ValueError("unsatisfiable class constraint combination")
    max_head = 1 if req & {"normal", "horn", "definite", "unary"} else 2
    min_head = 1 if req & {"definite", "unary"} else 0
    allow_neg = not (req & {"positive", "horn", "unary"})
    max_pos = 1 if "unary" in req else 2
    for _ in range(200):
        rules = frozenset(
            _random_rule(rng, atoms, min_head, max_head, max_pos, allow_neg, "disjunctive" in req)
            for _ in range(cfg.rule_count)
        )
        p = Program(rules, uni)
        if req <= classify(p).flags:
            return p
    raise ValueError("unsatisfiable class constraint combination")


def _random_rule(rng, atoms, min_head, max_head, max_pos, allow_neg, force_disj) -> Rule:
    hi = 2 if (force_disj and rng.random() < 0.5) else rng.randint(min_head, max_head)
    hi = min(hi, len(atoms))
    head = sum(1 << i for i in rng.sample(atoms, hi))
    pos = sum(1 << i for i in rng.sample(atoms, rng.randint(0, min(max_pos, len(atoms)))))
    neg = 0
    if allow_neg:
        neg = sum(1 << i for i in rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
    return Rule(head, pos, neg)


# ---------------------------------------------------------------------------
# exhaustive program family


def family_rules(over: int) -> list[Rule]:
    """All rules over ``over`` with heads of up to two atoms and at most one
    positive and one negative body atom."""
    heads = [m for m in submasks(over) if m.bit_count() <= 2]
    bodies = [m for m in submasks(over) if m.bit_count() <= 1]
    return [Rule(h, p, n) for h in heads for p in bodies for n in bodies]


def family_programs(universe: Universe, over: int, max_rules: int = 2) -> list[Program]:
    """All programs assembled from at most ``max_rules`` family rules."""
    rules = family_rules(over)
    return [Program(frozenset(c), universe) for k in range(max_rules + 1) for c in itertools.combinations(rules, k)]


# ---------------------------------------------------------------------------
# fast definitional oracles

def _se_set(rules: Collection[Rule], over: int) -> frozenset[tuple[int, int]]:
    """SE-models of ``rules`` over ``over`` by definition: the pairs where Y
    models the rules and X ⊆ Y models the reduct, the rules whose negative
    body misses Y without their negative body."""
    pairs = []
    for y in submasks(over):
        if all(satisfies(y, r) for r in rules):
            red = [Rule(r.head, r.pos, 0) for r in rules if not (r.neg & y)]
            pairs.extend((x, y) for x in submasks(y) if all(satisfies(x, r) for r in red))
    return frozenset(pairs)


@lru_cache(maxsize=None)
def context_se_classes(alpha_size: int) -> tuple[frozenset, ...]:
    """Distinct SE-model sets realized by programs of at most three rules
    over an ``alpha_size``-atom alphabet (abstract bit positions)."""
    if alpha_size > 2:
        raise ValueError("context-class enumeration supports at most 2 alphabet atoms")
    over = (1 << alpha_size) - 1
    rules = [
        Rule(h, p, n)
        for h in submasks(over)
        for p in submasks(over)
        for n in submasks(over)
    ]
    seen = {_se_set(combo, over) for k in range(4) for combo in itertools.combinations(rules, k)}
    return tuple(sorted(seen, key=sorted))


def _pick_classes(alpha_size: int, limit: int, kind: str, rules_of) -> tuple[frozenset, ...]:
    # the SE-model set of each subset of `rules_of(over)`, in pick order (bit i = rule i)
    if alpha_size > limit:
        raise ValueError(f"{kind}-class enumeration supports at most {limit} alphabet atoms")
    over = (1 << alpha_size) - 1
    rules = rules_of(over)
    return tuple(_se_set([rules[i] for i in bits(pick)], over) for pick in range(1 << len(rules)))


@lru_cache(maxsize=None)
def fact_classes(alpha_size: int) -> tuple[frozenset, ...]:
    """SE-model sets of the fact programs over an ``alpha_size``-atom
    alphabet (abstract bit positions), in ascending order of fact masks."""
    return _pick_classes(alpha_size, 6, "fact", lambda over: [Rule(1 << i, 0, 0) for i in bits(over)])


@lru_cache(maxsize=None)
def unary_classes(alpha_size: int) -> tuple[frozenset, ...]:
    """SE-model sets of the unary programs over an ``alpha_size``-atom alphabet
    (abstract bit positions), one per subset of ``unary_rules`` in pick order."""
    return _pick_classes(alpha_size, 3, "unary", unary_rules)


def sm_from_se(pairs: Iterable[tuple[int, int]]) -> frozenset[int]:
    """Answer sets read off an SE-model set: ``sm_under_classes`` at A = ∅."""
    return sm_under_classes(pairs, 0, fact_classes(0))[0]


def sm_under_classes(pairs: Iterable[tuple[int, int]], a: int, classes: Iterable[frozenset]) -> tuple:
    """SM(P plus C) for a context C of each class (its SE-models over the
    alphabet ``a``, in abstract bit positions), from the SE-models of P."""
    positions = list(bits(a))
    by_y: dict[int, list[int]] = {}
    for x, y in pairs:
        by_y.setdefault(y, []).append(x)
    rows = []  # per total (y, y) of P: y, and (y, y) and its partners (x, y) projected
    for y, xs in by_y.items():
        if y in xs:
            ya = project(y, positions)
            rows.append((y, (ya, ya), {(project(x, positions), ya) for x in xs if x != y}))
    return tuple(frozenset(y for y, total, partners in rows if total in cls and cls.isdisjoint(partners))
                 for cls in classes)


def _program_se(p: Program, over: int) -> frozenset[tuple[int, int]]:
    # `_se_set` of p, with the checks of `se_models`
    return _se_set(p.rules, _checked_over(p, over))


def uniform_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus F) for every fact set F over the alphabet, in order."""
    return sm_under_classes(_program_se(p, over), a, fact_classes(a.bit_count()))


def strong_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus R) for one representative R of every context class."""
    return sm_under_classes(_program_se(p, over), a, context_se_classes(a.bit_count()))


def unary_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus U) for every unary program U over the alphabet."""
    return sm_under_classes(_program_se(p, over), a, unary_classes(a.bit_count()))


# ---------------------------------------------------------------------------
# sweeps


class SweepReport(_Record):
    """The one mutable record: a sweep fills it in as it runs."""

    __slots__ = ("prop", "checked", "counterexamples")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, prop: str, checked: int, counterexamples: Optional[list[str]] = None):
        self._init(prop, checked, [] if counterexamples is None else counterexamples)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def exhaustive_sweep(atom_count: int, prop: str, max_rules: Optional[int] = None) -> SweepReport:
    """Evaluate a registered property over the exhaustive program family
    (``CapacityError`` past 667 programs), stopping at 20 counterexamples.
    ``max_rules`` bounds the rules per family program; ``shift-subset`` and
    ``shift-difference`` check each family rule alone and ignore it."""
    if not 1 <= atom_count <= 3:
        raise ValueError("exhaustive sweeps support 1 to 3 atoms")
    if max_rules is not None and max_rules < 0:
        raise ValueError("max_rules must not be negative")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if max_rules is None:
        max_rules = 2 if atom_count <= 2 else 1
    cases, check = PROPERTIES[prop]
    report = SweepReport(prop, 0)
    for case in cases(atom_count, max_rules):
        report.checked += 1
        err = check(*case)
        if err:
            report.counterexamples.append(err)
            if len(report.counterexamples) >= 20:
                break
    return report


def _setup(atom_count: int, max_rules: int):
    uni = Universe(ATOM_NAMES[:atom_count])
    over = uni.full_mask
    n = len(family_rules(over))
    size = sum(math.comb(n, k) for k in range(max_rules + 1))
    if size > 667:  # the largest default family: 2 atoms, 2 rules
        raise CapacityError(f"{size} family programs exceed the sweep cap of 667")
    return uni, over, family_programs(uni, over, max_rules)


def _programs(atom_count: int, max_rules: int):
    # (p, uni, over) per family program
    uni, over, progs = _setup(atom_count, max_rules)
    return ((p, uni, over) for p in progs)


def _pairs(precompute, atom_count: int, max_rules: int, keep=None):
    # (p, q, precompute(p), precompute(q), uni, over) per ordered pair of the
    # family programs that pass `keep`
    uni, over, progs = _setup(atom_count, max_rules)
    progs = [p for p in progs if keep is None or keep(p)]
    data = [precompute(p, uni, over) for p in progs]
    return ((p, q, dp, dq, uni, over) for p, dp in zip(progs, data) for q, dq in zip(progs, data))


def _rules(atom_count: int, max_rules: int):
    # (r, SE-models of {r}, SE-models of its shift, over) per family rule
    uni, over, _ = _setup(atom_count, 0)
    for r in family_rules(over):
        se = set(se_models(Program(frozenset([r]), uni), over))
        yield r, se, set(se_models(Program(shift_rule(r), uni), over)), over


def _ue_subset_se(p, uni, over):
    se = set(se_models(p, over))
    ue = set(ue_models(p, over))
    if not ue <= se:
        return f"UE not within SE for: {p.rules}"
    totals = {(y, y) for x, y in se if x == y}
    if not totals <= ue:
        return f"total SE-model missing from UE for: {p.rules}"
    return None


def _answer_sets_se(p, uni, over):
    direct = sorted(answer_sets(p))
    via = sorted(sm_from_se(se_models(p)))
    if direct != via:
        return f"answer-set characterizations disagree for: {p.rules}"
    return None


def _ase_answer_sets(p, uni, over):
    # answer sets are exactly the totals without a non-total partner, for
    # every alphabet
    sm = set(answer_sets(p))
    for a in submasks(over):
        if sm != sm_from_se((pr.x, pr.y) for pr in ase_models(p, a, over)):
            return f"alphabet {uni.fmt(a)} breaks the answer-set reading for: {p.rules}"
    return None


def _small_alphabet(p, uni, over):
    for a in submasks(over):
        if a.bit_count() > 1:
            continue
        if set(ase_models(p, a, over)) != set(aue_models(p, a, over)):
            return f"alphabet {uni.fmt(a)} splits SE/UE for: {p.rules}"
    return None


def _model_sets(p, uni, over):
    return frozenset(answer_sets(p)), frozenset(se_models(p, over)), frozenset(ue_models(p, over))


def _hierarchy(p, q, dp, dq, uni, over):
    ordinary, strong, uniform = dp[0] == dq[0], dp[1] == dq[1], dp[2] == dq[2]
    if strong and not uniform:
        return f"strong without uniform: {p.rules} vs {q.rules}"
    if uniform and not ordinary:
        return f"uniform without ordinary: {p.rules} vs {q.rules}"
    return None


def _agree(p, q, dp, dq, uni, over):
    # dp and dq map each counterexample text, in order, to the keys of p and
    # of q whose equalities must all agree
    for text, keys in dp.items():
        if len({k == l for k, l in zip(keys, dq[text])}) > 1:
            return f"{text}: {p.rules} vs {q.rules}"
    return None


def _uniform_data(p, uni, over):
    return {"uniform decider disagrees with fact-set oracle": (frozenset(ue_models(p, over)),
                                                               uniform_signature(p, over, over))}


def _unary_data(p, uni, over):
    return {f"rel-strong decider disagrees with unary oracle at {uni.fmt(a)}":
            (frozenset(ase_models(p, a, over)), unary_signature(p, a, over)) for a in submasks(over)}


def _collapse_data(p, uni, over):
    kinds = (ase_models, aue_models, a_minimal_models)
    return {f"positive collapse fails at {uni.fmt(a)}": tuple(frozenset(kind(p, a, over)) for kind in kinds)
            for a in submasks(over)}


def _degenerate_data(p, uni, over):
    ordinary, strong, uniform = _model_sets(p, uni, over)
    return {"empty alphabet differs from ordinary": (frozenset(ase_models(p, 0, over)), ordinary),
            "full alphabet differs from strong": (frozenset(ase_models(p, over, over)), strong),
            "full alphabet differs from uniform": (frozenset(aue_models(p, over, over)), uniform)}


def _shift_subset(r, se, shifted, over):
    return None if se <= shifted else f"SE not preserved by shift for rule {r}"


def _shift_difference(r, se, shifted, over):
    return None if shifted - se == set(s_r(r, over)) else f"SE difference mismatch for rule {r}"


# property name -> (case source, check): `cases(atom_count, max_rules)`
# yields the arguments of `check`, which returns a counterexample or None
PROPERTIES: dict[str, tuple[Callable[[int, int], Iterable[tuple]], Callable[..., Optional[str]]]] = {
    "ue-subset-se": (_programs, _ue_subset_se),
    "answer-sets-se": (_programs, _answer_sets_se),
    "ase-answer-sets": (_programs, _ase_answer_sets),
    "small-alphabet-collapse": (_programs, _small_alphabet),
    "hierarchy": (partial(_pairs, _model_sets), _hierarchy),
    "uniform-oracle": (partial(_pairs, _uniform_data), _agree),
    "unary-oracle": (partial(_pairs, _unary_data), _agree),
    "positive-collapse": (partial(_pairs, _collapse_data, keep=lambda p: all(r.neg == 0 for r in p.rules)), _agree),
    "shift-subset": (_rules, _shift_subset),
    "shift-difference": (_rules, _shift_difference),
    "degenerate-alphabets": (partial(_pairs, _degenerate_data), _agree),
}

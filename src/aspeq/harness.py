"""Random program generation, exhaustive sweeps, fast definitional oracles.

The sweep machinery enumerates every program built from a bounded rule
shape family (heads up to two atoms, at most one positive and one negative
body atom) and evaluates named properties over all programs, pairs, and
alphabets.  The "fast oracle" helpers compute the same verdicts as literal
context enumeration but factor the work through SE-model sets: a context
acts on a program only through its SE-models, so contexts are grouped into
classes with equal SE-models over the alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Callable, Iterable, Optional

from .classify import classify
from .equivalence import unary_rules
from .relativized import a_minimal_models, ase_models, aue_models
from .se import se_models, ue_models
from .semantics import answer_sets, satisfies, submasks
from .syntax import Program, Rule, Universe, bits
from .transforms import s_r, shift_rule

ATOM_NAMES = "abcdefgh"


@dataclass(frozen=True)
class GeneratorConfig:
    atom_count: int
    rule_count: int
    seed: int
    require: frozenset[str] = frozenset()

    def __post_init__(self):
        if not 1 <= self.atom_count <= 8:
            raise ValueError("atom_count must be within 1..8")
        if not 0 <= self.rule_count <= 12:
            raise ValueError("rule_count must be within 0..12")


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

def project(mask: int, positions: list[int]) -> int:
    """Compress the bits of ``mask`` at ``positions`` into a small mask."""
    out = 0
    for k, p in enumerate(positions):
        if (mask >> p) & 1:
            out |= 1 << k
    return out


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
    seen = set()
    for k in range(4):
        for combo in itertools.combinations(rules, k):
            prog = frozenset(combo)
            pairs = []
            for y in submasks(over):
                if not all(satisfies(y, r) for r in prog):
                    continue
                red = [Rule(r.head, r.pos, 0) for r in prog if not (r.neg & y)]
                pairs.extend((x, y) for x in submasks(y) if all(satisfies(x, r) for r in red))
            seen.add(frozenset(pairs))
    return tuple(sorted(seen, key=lambda s: sorted(s)))


def sm_from_se(pairs: Iterable[tuple[int, int]]) -> frozenset[int]:
    """Answer sets read off an SE-model set."""
    by_y: dict[int, set[int]] = {}
    for x, y in pairs:
        by_y.setdefault(y, set()).add(x)
    return frozenset(y for y, xs in by_y.items() if y in xs and len(xs) == 1)


def sm_with_facts(pairs: Iterable[tuple[int, int]], f: int) -> frozenset[int]:
    """Answer sets of P plus the facts ``f``, from the SE-models of P."""
    return sm_from_se((x, y) for x, y in pairs if (f & ~x) == 0)


def sm_under_class(pairs: Iterable[tuple[int, int]], positions: list[int], cls: frozenset) -> frozenset[int]:
    """Answer sets of P plus any context whose SE-models over the alphabet
    equal ``cls`` (positions give the alphabet bits in ascending order)."""
    by_y: dict[int, list[int]] = {}
    for x, y in pairs:
        by_y.setdefault(y, []).append(x)
    out = []
    for y, xs in by_y.items():
        ya = project(y, positions)
        if (ya, ya) not in cls or y not in xs:
            continue
        if any(x != y and (project(x, positions), ya) in cls for x in xs):
            continue
        out.append(y)
    return frozenset(out)


def uniform_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus F) for every fact set F over the alphabet, in order."""
    pairs = se_models(p, over)
    return tuple(sm_with_facts(pairs, f) for f in submasks(a))


def strong_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus R) for one representative R of every context class."""
    positions = list(bits(a))
    classes = context_se_classes(len(positions))
    pairs = se_models(p, over)
    return tuple(sm_under_class(pairs, positions, cls) for cls in classes)


def unary_signature(p: Program, a: int, over: int) -> tuple:
    """SM(P plus U) for every unary program U over the alphabet."""
    rules = unary_rules(a)
    pairs = se_models(p, over)
    positions = list(bits(a))
    out = []
    for pick in range(1 << len(rules)):
        ctx = [rules[i] for i in bits(pick)]
        cls = frozenset(
            (x, y)
            for y in submasks(a)
            if all(satisfies(y, r) for r in ctx)
            for x in submasks(y)
            if all(satisfies(x, r) for r in ctx)
        )
        proj = frozenset((project(x, positions), project(y, positions)) for x, y in cls)
        out.append(sm_under_class(pairs, positions, proj))
    return tuple(out)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepReport:
    prop: str
    checked: int
    counterexamples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def exhaustive_sweep(atom_count: int, prop: str, max_rules: Optional[int] = None) -> SweepReport:
    """Evaluate a registered property over the exhaustive program family."""
    if not 1 <= atom_count <= 3:
        raise ValueError("exhaustive sweeps support 1 to 3 atoms")
    if max_rules is not None and max_rules < 0:
        raise ValueError("max_rules must not be negative")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if max_rules is None:
        max_rules = 2 if atom_count <= 2 else 1
    return PROPERTIES[prop](atom_count, max_rules)


def _setup(atom_count: int, max_rules: int):
    uni = Universe(ATOM_NAMES[:atom_count])
    over = uni.full_mask
    return uni, over, family_programs(uni, over, max_rules)


def _sweep(name: str, cases: Iterable[tuple], check) -> SweepReport:
    # `check(*case)` returns a counterexample message or None; stops at 20
    report = SweepReport(name, 0)
    for case in cases:
        report.checked += 1
        err = check(*case)
        if err:
            report.counterexamples.append(err)
            if len(report.counterexamples) >= 20:
                break
    return report


def _sweep_programs(name: str, atom_count: int, max_rules: int, check) -> SweepReport:
    uni, over, progs = _setup(atom_count, max_rules)
    return _sweep(name, ((p, uni, over) for p in progs), check)


def _prop_ue_subset_se(atom_count, max_rules):
    def check(p, uni, over):
        se = set(se_models(p, over))
        ue = set(ue_models(p, over))
        if not ue <= se:
            return f"UE not within SE for: {p.rules}"
        totals = {(y, y) for x, y in se if x == y}
        if not totals <= ue:
            return f"total SE-model missing from UE for: {p.rules}"
        return None

    return _sweep_programs("ue-subset-se", atom_count, max_rules, check)


def _prop_answer_sets_se(atom_count, max_rules):
    def check(p, uni, over):
        direct = sorted(answer_sets(p))
        via = sorted(sm_from_se(se_models(p)))
        if direct != via:
            return f"answer-set characterizations disagree for: {p.rules}"
        return None

    return _sweep_programs("answer-sets-se", atom_count, max_rules, check)


def _prop_ase_answer_sets(atom_count, max_rules):
    # answer sets are exactly the totals without a non-total partner, for
    # every alphabet
    def check(p, uni, over):
        sm = set(answer_sets(p))
        for a in submasks(over):
            pairs = ase_models(p, a, over)
            totals = {pr.y for pr in pairs if pr.total}
            with_partner = {pr.y for pr in pairs if not pr.total}
            if sm != totals - with_partner:
                return f"alphabet {uni.fmt(a)} breaks the answer-set reading for: {p.rules}"
        return None

    return _sweep_programs("ase-answer-sets", atom_count, max_rules, check)


def _prop_small_alphabet(atom_count, max_rules):
    def check(p, uni, over):
        for a in submasks(over):
            if a.bit_count() > 1:
                continue
            if set(ase_models(p, a, over)) != set(aue_models(p, a, over)):
                return f"alphabet {uni.fmt(a)} splits SE/UE for: {p.rules}"
        return None

    return _sweep_programs("small-alphabet-collapse", atom_count, max_rules, check)


def _pairwise(name: str, atom_count: int, max_rules: int, precompute, compare, keep=None) -> SweepReport:
    # every ordered pair of the family programs that pass `keep`
    uni, over, progs = _setup(atom_count, max_rules)
    progs = [p for p in progs if keep is None or keep(p)]
    data = [precompute(p, uni, over) for p in progs]
    cases = ((p, q, dp, dq, uni, over) for p, dp in zip(progs, data) for q, dq in zip(progs, data))
    return _sweep(name, cases, compare)


def _prop_hierarchy(atom_count, max_rules):
    def pre(p, uni, over):
        return (
            frozenset(se_models(p, over)),
            frozenset(ue_models(p, over)),
            frozenset(answer_sets(p)),
        )

    def cmp(p, q, dp, dq, uni, over):
        strong, uniform, ordinary = dp[0] == dq[0], dp[1] == dq[1], dp[2] == dq[2]
        if strong and not uniform:
            return f"strong without uniform: {p.rules} vs {q.rules}"
        if uniform and not ordinary:
            return f"uniform without ordinary: {p.rules} vs {q.rules}"
        return None

    return _pairwise("hierarchy", atom_count, max_rules, pre, cmp)


def _prop_uniform_oracle(atom_count, max_rules):
    def pre(p, uni, over):
        sig = uniform_signature(p, over, over)
        return (frozenset(ue_models(p, over)), sig)

    def cmp(p, q, dp, dq, uni, over):
        if (dp[0] == dq[0]) != (dp[1] == dq[1]):
            return f"uniform decider disagrees with fact-set oracle: {p.rules} vs {q.rules}"
        return None

    return _pairwise("uniform-oracle", atom_count, max_rules, pre, cmp)


def _prop_unary_oracle(atom_count, max_rules):
    def pre(p, uni, over):
        return {a: (frozenset(ase_models(p, a, over)), unary_signature(p, a, over)) for a in submasks(over)}

    def cmp(p, q, dp, dq, uni, over):
        for a in dp:
            if (dp[a][0] == dq[a][0]) != (dp[a][1] == dq[a][1]):
                return f"rel-strong decider disagrees with unary oracle at {uni.fmt(a)}: {p.rules} vs {q.rules}"
        return None

    return _pairwise("unary-oracle", atom_count, max_rules, pre, cmp)


def _prop_positive_collapse(atom_count, max_rules):
    def pre(p, uni, over):
        return {
            a: (
                frozenset(ase_models(p, a, over)),
                frozenset(aue_models(p, a, over)),
                frozenset(a_minimal_models(p, a, over)),
            )
            for a in submasks(over)
        }

    def cmp(p, q, dp, dq, uni, over):
        for a in dp:
            s, u, m = (dp[a][k] == dq[a][k] for k in range(3))
            if not (s == u == m):
                return f"positive collapse fails at {uni.fmt(a)}: {p.rules} vs {q.rules}"
        return None

    return _pairwise("positive-collapse", atom_count, max_rules, pre, cmp,
                     keep=lambda p: all(r.neg == 0 for r in p.rules))


def _shift_cases(atom_count: int):
    # per family rule r: r, the SE-models of {r} and of its shift, the atoms
    uni = Universe(ATOM_NAMES[:atom_count])
    over = uni.full_mask
    for r in family_rules(over):
        se = set(se_models(Program(frozenset([r]), uni), over))
        yield r, se, set(se_models(Program(shift_rule(r), uni), over)), over


def _prop_shift_subset(atom_count, max_rules):
    def check(r, se, shifted, over):
        return None if se <= shifted else f"SE not preserved by shift for rule {r}"

    return _sweep("shift-subset", _shift_cases(atom_count), check)


def _prop_shift_difference(atom_count, max_rules):
    def check(r, se, shifted, over):
        return None if shifted - se == set(s_r(r, over)) else f"SE difference mismatch for rule {r}"

    return _sweep("shift-difference", _shift_cases(atom_count), check)


def _prop_degenerate(atom_count, max_rules):
    def pre(p, uni, over):
        return (
            frozenset(answer_sets(p)),
            frozenset(se_models(p, over)),
            frozenset(ue_models(p, over)),
            frozenset(ase_models(p, 0, over)),
            frozenset(ase_models(p, over, over)),
            frozenset(aue_models(p, over, over)),
        )

    def cmp(p, q, dp, dq, uni, over):
        if (dp[3] == dq[3]) != (dp[0] == dq[0]):
            return f"empty alphabet differs from ordinary: {p.rules} vs {q.rules}"
        if (dp[4] == dq[4]) != (dp[1] == dq[1]):
            return f"full alphabet differs from strong: {p.rules} vs {q.rules}"
        if (dp[5] == dq[5]) != (dp[2] == dq[2]):
            return f"full alphabet differs from uniform: {p.rules} vs {q.rules}"
        return None

    return _pairwise("degenerate-alphabets", atom_count, max_rules, pre, cmp)


PROPERTIES: dict[str, Callable[[int, int], SweepReport]] = {
    "ue-subset-se": _prop_ue_subset_se,
    "answer-sets-se": _prop_answer_sets_se,
    "ase-answer-sets": _prop_ase_answer_sets,
    "small-alphabet-collapse": _prop_small_alphabet,
    "hierarchy": _prop_hierarchy,
    "uniform-oracle": _prop_uniform_oracle,
    "unary-oracle": _prop_unary_oracle,
    "positive-collapse": _prop_positive_collapse,
    "shift-subset": _prop_shift_subset,
    "shift-difference": _prop_shift_difference,
    "degenerate-alphabets": _prop_degenerate,
}

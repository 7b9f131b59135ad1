import random
from typing import Optional

import pytest

from aspeq.equivalence import Witness
from aspeq.harness import GeneratorConfig, random_program
from aspeq.relativized import ASEPair, _y_is_a_minimal_for_reduct
from aspeq.se import is_se_model, se_models, ue_models
from aspeq.semantics import answer_sets, is_model, proper_submasks, reduct, satisfies, submasks
from aspeq.syntax import Program, Rule, Universe, bits, facts_program, parse_program
from aspeq.transforms import s_r, shift_one


# one "[acceptance] criterion N: PASS/FAIL" line per criterion, emitted
# through the terminal reporter so output capturing cannot swallow them
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def prog(text: str, universe: Universe) -> Program:
    return parse_program(text, universe)


def pair(text_p: str, text_q: str):
    """Parse two programs over one fresh shared universe."""
    uni = Universe()
    return parse_program(text_p, uni), parse_program(text_q, uni), uni


def chain(k: int, shifted: int = -1) -> str:
    """The chain ``x_i | y_i.  x_{i+1} :- x_i, not y_{i+1}.`` over 2k atoms,
    with the disjunction at ``shifted`` replaced by its shift."""
    rules = []
    for i in range(k):
        rules += [f"x{i} :- not y{i}.", f"y{i} :- not x{i}."] if i == shifted else [f"x{i} | y{i}."]
        if i + 1 < k:
            rules.append(f"x{i + 1} :- x{i}, not y{i + 1}.")
    return " ".join(rules)


def fmt_pairs(universe: Universe, pairs):
    """Render (x, y) mask pairs or ASEPairs for golden comparisons."""
    out = []
    for p in pairs:
        if hasattr(p, "x"):
            out.append(universe.fmt_pair(p.x, p.y))
        else:
            out.append(universe.fmt_pair(p[0], p[1]))
    return out


def random_pair(seed: int, atoms: int = 4, max_rules: int = 5, require=()):
    """Deterministic random program pair over one shared universe."""
    rng = random.Random(seed)
    uni = Universe("abcdefgh"[:atoms])
    req = frozenset(require)
    p = random_program(GeneratorConfig(atoms, rng.randint(0, max_rules), seed, req), uni)
    q = random_program(
        GeneratorConfig(atoms, rng.randint(0, max_rules), seed + 900001, req), uni
    )
    return p, q, uni, rng


def aue_direct(p: Program, a: int, over: int) -> list[ASEPair]:
    """A-UE-models by their direct characterization, an oracle for
    ``aue_models`` (which filters the A-SE-models for maximality).

    Non-total (x, y) qualifies iff y models p, every x'' strictly below y
    whose a-part strictly extends x (or equals y's) fails the reduct, and
    some x' within y that agrees with x on ``a`` models the reduct.
    """
    out = []
    for y in submasks(over):
        if not is_model(y, p):
            continue
        red = reduct(p, y)
        if _y_is_a_minimal_for_reduct(red.rules, y, a):
            out.append(ASEPair(y, y, a))
        ya = y & a
        for x in submasks(ya):
            if x == ya:
                continue
            blocked = False
            for x2 in proper_submasks(y):
                x2a = x2 & a
                grows = (x & ~x2a) == 0 and x != x2a
                if (grows or x2a == ya) and is_model(x2, red):
                    blocked = True
                    break
            if not blocked and any(is_model(x | t, red) for t in submasks(y & ~a)):
                out.append(ASEPair(x, y, a))
    return sorted(out, key=lambda pr: (pr.y, pr.x))


def first_witness_two_lists(p: Program, q: Program, contexts) -> Optional[Witness]:
    """The witness at the first context on which the answer sets of ``p``
    and ``q`` differ, from both full answer-set lists: the least answer set
    on one side only.  An oracle for ``_first_witness``, which scans one Y
    at a time."""
    for ctx in contexts:
        sp, sq = set(answer_sets(p | ctx)), set(answer_sets(q | ctx))
        if sp != sq:
            d = min(sp ^ sq)
            return Witness(ctx, d, "left" if d in sp else "right")
    return None


def strong_witness_reference(p: Program, q: Program, a: int) -> Witness:
    """The unary-context witness search with an answer-set test of every
    candidate, a reference for ``build_strong_witness`` (which returns its
    first candidate and leaves the one test to ``_check_witness``).

    Y runs in ascending order, both argument orders; a candidate context
    is kept only when Y is an answer set of the first program plus the
    context and not of the second.
    """
    for y in submasks(p.var | q.var | a):
        for first, second, side in ((p, q, "left"), (q, p, "right")):
            if not is_model(y, first):
                continue
            red_first = reduct(first, y)
            if not _y_is_a_minimal_for_reduct(red_first.rules, y, a):
                continue
            contexts = []
            if not is_model(y, second):
                contexts.append(facts_program(y & a, p.universe))
            else:
                red_second = reduct(second, y)
                for x in submasks(y):
                    if x == y or not is_model(x, red_second):
                        continue
                    if any((x2 & a) == (x & a) and is_model(x2, red_first) for x2 in submasks(y) if x2 != y):
                        continue
                    grow = (y & ~x) & a
                    rules = {Rule(1 << i, 0, 0) for i in bits(x & a)}
                    rules |= {Rule(1 << i, 1 << j, 0) for i in bits(grow) for j in bits(grow) if i != j}
                    contexts.append(Program(frozenset(rules), p.universe))
                    break
            for ctx in contexts:
                if y in answer_sets(first | ctx) and y not in answer_sets(second | ctx):
                    return Witness(ctx, y, side)
    raise AssertionError("no witness found; programs appear strongly equivalent")


def per_x_row(p: Program, a: int, y: int) -> list[int]:
    """The X of the A-SE-models ``(X, Y)`` of ``p`` at ``y``, one X at a
    time, ascending, with ``y`` last; empty unless ``y`` models ``p`` with
    no ``y'`` below it, agreeing on ``a``, modelling the reduct.  A
    reference for ``semantics._row``, which reads the Xs as one table.

    A non-total X lies strictly inside ``y ∩ a`` and some extension of it
    off ``a`` within ``y`` models the reduct.
    """
    if not is_model(y, p):
        return []
    # every x ⊆ y misses these rules' negative bodies: `satisfies` reads the reduct
    red = [r for r in p.rules if not (r.neg & y)]
    if not _y_is_a_minimal_for_reduct(red, y, a):
        return []
    ya = y & a
    ext = list(submasks(y & ~a)) if ya else []  # at y ∩ a = ∅ the row is [y]
    row = []
    for x in submasks(ya):
        if x == ya:  # the last submask; y closes the row below
            break
        for t in ext:
            if all(satisfies(x | t, r) for r in red):
                row.append(x)
                break
    row.append(y)
    return row


def per_x_maximal_row(p: Program, a: int, y: int) -> list[int]:
    """The X of the A-UE-models at ``y``: ``y`` itself and the non-total X
    of ``per_x_row`` with no strict superset among the non-total ones."""
    row = per_x_row(p, a, y)
    # a strict superset of x sorts after it; the last entry is y
    return [x for i, x in enumerate(row[:-1]) if not any(not x & ~x2 for x2 in row[i + 1:-1])] + row[-1:]


def row_differences(p: Program, q: Program, a: int, over: int, maximal: bool) -> list[int]:
    """Every Y over ``over``, ascending, at which the per-X rows (the
    maximal ones with ``maximal``) differ between ``p`` and ``q``, from both
    programs' rows at every Y.  A reference for ``_differences`` (its first
    Y for ``_first_difference``), which reads only the Ys that a rule the
    programs do not share can tell apart, and each Y's Xs as one table."""
    row = per_x_maximal_row if maximal else per_x_row
    return [y for y in submasks(over) if row(p, a, y) != row(q, a, y)]


def se_consequence_listing(p: Program, r: Rule) -> bool:
    """Every listed SE-model of ``p`` is an SE-model of {r}; an oracle for
    ``se_consequence``."""
    single = Program(frozenset([r]), p.universe)
    return all(is_se_model(single, x, y) for x, y in se_models(p, p.var | r.atoms))


def ue_consequence_listing(p: Program, r: Rule) -> bool:
    """Every listed UE-model of ``p`` is an SE-model of {r}; an oracle for
    ``ue_consequence``."""
    single = Program(frozenset([r]), p.universe)
    return all(is_se_model(single, x, y) for x, y in ue_models(p, p.var | r.atoms))


def shift_safe_listing(p: Program, r: Rule, a: int) -> bool:
    """Does shifting ``r`` preserve strong equivalence relative to ``a``,
    from both programs' SE-models and the gained set S_r; an oracle for
    ``check_shift_safe``, which asks the row search.

    True iff every SE-model of the shifted program that lies in the gained
    set has a non-total SE-model of ``p`` with the same Y and alphabet part,
    or ``p`` has a non-total SE-model at Y agreeing with Y on the alphabet.
    No gained pair is an SE-model of ``p`` (its X violates r's reduct).  A
    gained pair whose Y has a strictly smaller SE-companion agreeing with it
    on the alphabet contributes relativized SE-models to neither program,
    so it cannot create a difference.
    """
    over = p.var | a
    gained = set(s_r(r, over))
    parts = {(y, x & a) for x, y in se_models(p, over) if x != y}
    return all((y, y & a) in parts or (y, x & a) in parts
               for x, y in se_models(shift_one(p, r), over) if (x, y) in gained)

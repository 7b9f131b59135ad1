"""Shifting disjunctive heads, head-cycle tests, constraint elimination.

The shift of a rule turns ``a | b :- body`` into one normal rule per head
atom, moving the remaining head atoms into the negative body.  For
head-cycle-free programs the shift preserves (relativized) uniform
equivalence; ``check_shift_safe`` decides when it also preserves
relativized strong equivalence, by asking the row search of
``semantics`` whether the shift changes any A-SE row.  ``s_r`` lists the
SE-pairs that shifting one rule gains.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .semantics import _first_difference, check_capacity, submasks
from .syntax import ATOM_RE, Program, Rule, bits


def shift_rule(r: Rule) -> frozenset[Rule]:
    """One normal rule per head atom; constraints are returned unchanged."""
    if r.head == 0:
        return frozenset([r])
    return frozenset(Rule(1 << i, r.pos, r.neg | (r.head & ~(1 << i))) for i in bits(r.head))


def shift_one(p: Program, r: Rule) -> Program:
    """Shift a single rule of ``p``, leaving the rest untouched."""
    if r not in p.rules:
        raise ValueError("rule is not part of the program")
    return Program((p.rules - {r}) | shift_rule(r), p.universe)


def shift_program(p: Program) -> Program:
    return Program(frozenset(s for r in p.rules for s in shift_rule(r)), p.universe)


def s_r(r: Rule, over: int) -> list[tuple[int, int]]:
    """SE-pairs gained by shifting ``r``: X satisfies the positive body, Y
    avoids the negative body and meets the head twice, X misses the head.
    Sorted by ``(y, x)``."""
    check_capacity(over)
    out = []
    for y in submasks(over):
        if (y & r.neg) or (r.head & y).bit_count() < 2:
            continue
        for x in submasks(y):
            if (r.pos & ~x) == 0 and (r.head & x) == 0:
                out.append((x, y))
    return out


def is_hcf(p: Program) -> bool:
    """No positive-dependency cycle through two head atoms of one rule."""
    return is_a_hcf(p, 0)


def is_a_hcf(p: Program, a: int) -> bool:
    """Head-cycle freeness on the dependency graph augmented with a clique
    over the alphabet ``a``: no two head atoms of one rule reach each other
    along the positive edges body->head or the clique's edges.  The
    reachability masks are Warshall's closure over the bit masks."""
    reach = {i: 0 for i in bits(p.var | a)}
    for r in p.rules:
        for b in bits(r.pos):
            reach[b] |= r.head & ~(1 << b)
    for i in bits(a):
        reach[i] |= a & ~(1 << i)
    for k in reach:
        for i, m in reach.items():
            if (m >> k) & 1:
                reach[i] = m | reach[k]
    return not any((reach[u] >> v) & 1 and (reach[v] >> u) & 1
                   for r in p.rules for u, v in combinations(bits(r.head), 2))


def check_shift_safe(p: Program, r: Rule, a: int) -> bool:
    """Does shifting ``r`` preserve strong equivalence relative to ``a``?

    True iff ``p`` and ``shift_one(p, r)`` have the same A-SE-models, asked
    of the row search that ``decide`` runs (``semantics._first_difference``).
    Raises ``ValueError`` when ``r`` is not a rule of ``p`` and
    ``CapacityError`` when var(p) ∪ ``a`` exceeds the cap.
    """
    shifted = shift_one(p, r)
    check_capacity(p.var | a)
    return _first_difference(p, shifted, a & p.var, p.var, maximal=False) is None


def _fresh_atom(p: Program, w: Optional[str]) -> str:
    """The atom ``w``, checked to be a valid name that ``p`` does not use;
    by default the first of w, w1, w2, ... that the universe lacks."""
    if w is None:
        used = set(p.universe.names)
        w, n = "w", 0
        while w in used:
            n += 1
            w = f"w{n}"
    if not ATOM_RE.fullmatch(w or ""):
        raise ValueError(f"invalid atom name: {w!r}")
    if w in p.universe.index and (p.var >> p.universe.index[w]) & 1:
        raise ValueError(f"{w!r} occurs in the program")
    return w


def eliminate_constraints_negation(p: Program, w: Optional[str] = None) -> tuple[Program, int]:
    """Replace each constraint ``:- B`` by ``w :- B, not w``.

    Returns the rewritten program and the recommended alphabet for
    relativized checks: every universe atom except ``w``.
    """
    wbit = 1 << p.universe.intern(_fresh_atom(p, w))
    rules = set()
    for r in p.rules:
        if r.head == 0:
            rules.add(Rule(wbit, r.pos, r.neg | wbit))
        else:
            rules.add(r)
    alphabet = p.universe.full_mask & ~wbit
    return Program(frozenset(rules), p.universe), alphabet


def eliminate_constraints_positive(p: Program, w: Optional[str] = None) -> Program:
    """Positive variant: constraints become ``w :- B`` and every universe
    atom (other than ``w`` itself) gets a rule ``v :- w``, whether or not a
    constraint is present."""
    if any(r.neg for r in p.rules):
        raise ValueError("program is not positive")
    spread = p.universe.full_mask
    wbit = 1 << p.universe.intern(_fresh_atom(p, w))
    rules = set()
    for r in p.rules:
        if r.head == 0:
            rules.add(Rule(wbit, r.pos, 0))
        else:
            rules.add(r)
    for i in bits(spread & ~wbit):
        rules.add(Rule(1 << i, wbit, 0))
    return Program(frozenset(rules), p.universe)

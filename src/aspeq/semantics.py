"""Classical satisfaction, reducts, answer sets, Horn least models, and
the per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings.

All enumeration is exhaustive over bit masks and guarded by a capacity cap
of 24 atoms; every function here is pure.  ``is_answer_set`` asks the
answer-set question of one interpretation, and its callers check the cap.
A row lists the X of the A-SE-models (X, Y) of a program at one Y, as the
models are defined: Y is an A-minimal model of the reduct and the X are
alphabet parts below it.  The listings join the rows of every Y in
ascending order.  ``_first_difference``, the one row search, finds the
first Y at which two programs' rows differ; at the full alphabet it reads
the Xs ⊆ Y at once, as truth tables (one bit per X) of the unshared rules.
``decide``, SE-/UE-consequence and ``check_shift_safe`` all ask it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .syntax import Program, Rule, Universe, bits

CAPACITY = 24


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the atom cap."""


def check_capacity(mask: int) -> None:
    n = mask.bit_count()
    if n > CAPACITY:
        raise CapacityError(f"{n} atoms exceeds the enumeration cap of {CAPACITY}")


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` in ascending unsigned order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def proper_submasks(mask: int) -> Iterator[int]:
    """All strict subsets of ``mask`` (descending order, for early exits)."""
    if mask == 0:
        return
    s = (mask - 1) & mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def satisfies(i: int, r: Rule) -> bool:
    """Classical satisfaction: body applicable implies head intersected."""
    if (r.pos & ~i) == 0 and (r.neg & i) == 0:
        return (r.head & i) != 0
    return True


def is_model(i: int, p: Program) -> bool:
    return all(satisfies(i, r) for r in p.rules)


def reduct(p: Program, y: int) -> Program:
    """Reduct of ``p`` w.r.t. ``y``: drop rules whose negative body meets
    ``y``, strip the negative body from the rest."""
    out = set()
    for r in p.rules:
        if r.neg & y:
            continue
        out.add(Rule(r.head, r.pos, 0))
    return Program(frozenset(out), p.universe)


def classical_models(p: Program, over: Optional[int] = None) -> list[int]:
    """All models of ``p`` among subsets of ``over`` (default var(p))."""
    if over is None:
        over = p.var
    if p.var & ~over:
        raise ValueError("`over` must cover var(p)")
    check_capacity(over)
    rules = list(p.rules)
    return [i for i in submasks(over) if all(satisfies(i, r) for r in rules)]


def minimal_models(p: Program, over: Optional[int] = None) -> list[int]:
    models = classical_models(p, over)
    model_set = set(models)
    return [y for y in models if not any(x in model_set for x in proper_submasks(y))]


def is_answer_set(y: int, p: Program) -> bool:
    """Is ``y`` an answer set of ``p``: ``y`` models ``p`` and no strict
    subset of ``y`` models the reduct of ``p`` w.r.t. ``y``.  An atom of
    ``y`` outside var(p) makes it False.  Costs up to 2^|y| model checks."""
    # every x ⊆ y misses these rules' negative bodies: `satisfies` reads the reduct
    red = [r for r in p.rules if not (r.neg & y)]
    if not all(satisfies(y, r) for r in red):
        return False
    return not any(all(satisfies(x, r) for r in red) for x in proper_submasks(y))


def answer_sets(p: Program) -> list[int]:
    """All answer sets of ``p``: the subsets of var(p) that pass
    ``is_answer_set``, ascending."""
    var = p.var
    check_capacity(var)
    return [y for y in submasks(var) if is_answer_set(y, p)]


def _y_is_a_minimal_for_reduct(red: Iterable[Rule], y: int, a: int) -> bool:
    # no y' strictly below y agreeing with y on `a` satisfies every rule of `red`
    fixed = y & a
    return not any(all(satisfies(fixed | t, r) for r in red) for t in proper_submasks(y & ~a))


def _row(p: Program, a: int, y: int) -> list[int]:
    """The X of the A-SE-models ``(X, Y)`` of ``p`` at ``y``, ascending,
    with ``y`` last; empty unless ``y`` models ``p`` with no ``y'`` below
    it, agreeing on ``a``, modelling the reduct.  With ``a`` covering ``y``
    these are the SE-models at ``y``.

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


def _maximal_row(p: Program, a: int, y: int) -> list[int]:
    """The X of the A-UE-models at ``y``: ``y`` itself and the non-total X
    of ``_row`` with no strict superset among the non-total ones."""
    row = _row(p, a, y)
    # a strict superset of x sorts after it; the last entry is y
    return [x for i, x in enumerate(row[:-1]) if not any(not x & ~x2 for x2 in row[i + 1:-1])] + row[-1:]


def _first_difference(p: Program, q: Program, a: int, over: int, row) -> Optional[int]:
    """The least Y over ``over`` at which ``row`` (``_row`` for the
    A-SE-models, ``_maximal_row`` for the A-UE-models) differs between
    ``p`` and ``q``, or None when every row agrees.

    At an ``a`` covering ``over`` only the rules that the programs do not
    share tell the rows apart (SE(P) = SE(P ∩ Q) ∩ SE(P \\ Q), Turner 2003).
    At a Y modelling both, tables with one bit per X ⊆ Y hold F, the Xs
    failing a live shared rule, and F_s, those failing a live unshared rule
    of side s.  The rows differ iff ``(F_p ^ F_q) & ~F`` is not 0, and the
    maximal rows iff some X of ``S_s & F_other`` has no strict superset in
    S_s = ~F & ~F_s below Y.
    """
    check_capacity(over)
    if over & ~a:
        return next((y for y in submasks(over) if row(p, a, y) != row(q, a, y)), None)
    # a rule whose body meets its head holds in every SE-model
    shared, *own = ([r for r in rs if not r.pos & r.head] for rs in (p.rules & q.rules, p.rules - q.rules, q.rules - p.rules))
    coord: list[int] = []  # coord[j]: the Xs holding atom j, for the largest Y so far
    for y in submasks(over):
        held = [all(r.pos & ~y or r.neg & y or r.head & y for r in rules) for rules in (shared, *own)]
        if held[0] and held[1] != held[2]:
            return y
        if not (held[0] and held[1]):
            continue
        # a rule whose body fails at Y holds at every X ⊆ Y
        red, *live = ([(r.pos, r.head & y) for r in rules if not (r.pos & ~y or r.neg & y)] for rules in (shared, *own))
        if not (live[0] or live[1]):
            continue
        m = y.bit_count()
        while len(coord) < m:  # one more coordinate doubles every table
            w = 1 << len(coord)
            coord = [e | e << w for e in coord] + [((1 << w) - 1) << w]
        full = (1 << (1 << m)) - 1
        tables = [e & full for e in coord[:m]]
        at = dict(zip(bits(y), tables))
        f, f_p, f_q = (_failing(rules, at, full) for rules in (red, *live))
        if row is _row:
            if (f_p ^ f_q) & ~f:
                return y
        elif any(s & other & ~_strict_down(s, tables)  # full >> 1: every X but Y, the top bit
                 for s, other in ((full >> 1 & ~(f | f_p), f_q), (full >> 1 & ~(f | f_q), f_p))):
            return y
    return None


def _failing(rules: list[tuple[int, int]], at: dict[int, int], full: int) -> int:
    """The OR of the cubes of ``rules``, pairs of a positive body and a disjoint
    head ∩ Y: the AND of ``at`` over the body and of ``~at`` over the head."""
    f = 0
    for b, h in rules:
        t = full
        for i in bits(b | h):
            t &= at[i] if b >> i & 1 else ~at[i]
        f |= t
    return f


def _strict_down(s: int, tables: list[int]) -> int:
    """The Xs with a strict superset in the table ``s``: one step down along
    each coordinate, then the down-closure (Knuth, TAOCP 4A §7.1.3)."""
    t = 0
    for j, e in enumerate(tables):
        t |= (s & e) >> (1 << j)
    for j, e in enumerate(tables):
        t |= (t & e) >> (1 << j)
    return t


def _ase_pairs(p: Program, a: int, over: int, row=_row) -> list[tuple[int, int]]:
    """The pairs ``(x, y)`` of the rows of ``p`` over ``over`` in ``(y, x)``
    order: the A-SE-models, or with ``row=_maximal_row`` the A-UE-models.
    ``over`` must cover var(p); it and the capacity are checked here."""
    if p.var & ~over:
        raise ValueError("`over` must cover var(p)")
    check_capacity(over)
    return [(x, y) for y in submasks(over) for x in row(p, a, y)]


def is_horn(p: Program) -> bool:
    return all(r.head.bit_count() <= 1 and r.neg == 0 for r in p.rules)


def _horn_closure(p: Program) -> Callable[[int, int], Optional[int]]:
    """``horn_least_model`` of ``p`` as a function of ``facts`` and
    ``false``, with the rules of ``p`` checked and split once, for callers
    that pin one program many times.  Raises ``ValueError`` when ``p`` is
    not Horn."""
    definite, constraints = [], []
    for r in p.rules:
        if r.neg or r.head.bit_count() > 1:
            raise ValueError("program is not Horn")
        (definite if r.head else constraints).append(r)

    def least(facts: int = 0, false: int = 0) -> Optional[int]:
        i = facts
        changed = True
        while changed:
            changed = False
            for r in definite:
                if (r.pos & ~i) == 0 and (r.head & i) == 0:
                    i |= r.head
                    changed = True
        if i & false or any((r.pos & ~i) == 0 for r in constraints):
            return None
        return i

    return least


def horn_least_model(p: Program, facts: int = 0, false: int = 0) -> Optional[int]:
    """Least model of Horn ``p`` containing the atoms ``facts``, or None
    when a constraint rejects it or it meets the atoms ``false``: forward
    chaining from ``facts`` (Dowling & Gallier 1984), as if each pinned atom
    were a fact or a constraint ``:- i.`` of ``p``.  Raises ``ValueError``
    when ``p`` is not Horn."""
    return _horn_closure(p)(facts, false)


def horn_satisfiable(p: Program, facts: int = 0, false: int = 0) -> bool:
    """Has Horn ``p`` a model containing ``facts`` and missing ``false``?"""
    return horn_least_model(p, facts, false) is not None


def horn_entails(p: Program, r: Rule) -> bool:
    """Does Horn ``p`` classically entail the positive rule ``r``?

    Checked by refutation: no model of p contains B+(r) and misses H(r)
    (for a constraint: its body contradicts p).
    """
    if r.neg:
        raise ValueError("entailment check only supports positive rules")
    return not horn_satisfiable(p, r.pos, r.head)


def bound_sets(y: int, u: int, universe: Universe) -> tuple[Program, Program, Program]:
    """Constraint programs pinning interpretations against ``y`` inside ``u``.

    Returns (subset, strict_subset, equal): models of the first are the
    subsets of ``y``; adding the big constraint over all of ``y`` excludes
    ``y`` itself (for ``y = 0`` that constraint is bare falsity); adding
    ``y`` as facts pins the model to exactly ``y``.
    """
    if y & ~u:
        raise ValueError("y must be a subset of u")
    outside = frozenset(Rule(0, 1 << i, 0) for i in bits(u & ~y))
    subset = Program(outside, universe)
    strict = Program(outside | {Rule(0, y, 0)}, universe)
    equal = Program(outside | {Rule(1 << i, 0, 0) for i in bits(y)}, universe)
    return subset, strict, equal

"""Classical satisfaction, reducts, answer sets, Horn least models, and
the per-Y rows under the SE-, UE-, A-SE- and A-UE-model listings.

All enumeration is exhaustive over bit masks and guarded by a capacity cap
of 24 atoms; every function here is pure.  ``is_answer_set`` asks the
answer-set question of one interpretation, and its callers check the cap;
its "no smaller model" scan, ``_y_is_a_minimal_for_reduct``, is also the
one under ``minimal_models`` and the relativized A-minimality checks.
A row lists the X of the A-SE-models (X, Y) of a program at one Y, as the
models are defined: Y is an A-minimal model of the reduct and the X are
alphabet parts below it.  It is read from one truth table, one bit per
X ⊆ Y, of the Xs modelling the reduct (``_row_table``), at every
alphabet; the Xs failing one rule form its cube (``_cubes``).  The
listings join the rows of every Y in ascending order, on one list of
coordinate tables.  ``_differences``, the one row search, yields each Y
at which two programs' rows differ, ascending: it builds P's and Q's own
tables first, skips Y when they agree, and ORs in the shared cubes only
until they cover where the two differ.  ``decide`` and its uniform witness
read it lazily; SE-/UE-consequence and ``check_shift_safe`` ask its
first Y (``_first_difference``).
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

from .syntax import Program, Rule, Universe, bits, project

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


def _checked_over(p: Program, over: int) -> int:
    # `over` once it covers var(p) and fits the capacity cap
    if p.var & ~over:
        raise ValueError("`over` must cover var(p)")
    check_capacity(over)
    return over


def classical_models(p: Program, over: Optional[int] = None) -> list[int]:
    """All models of ``p`` among subsets of ``over`` (default var(p))."""
    over = _checked_over(p, p.var if over is None else over)
    rules = list(p.rules)
    return [i for i in submasks(over) if all(satisfies(i, r) for r in rules)]


def minimal_models(p: Program, over: Optional[int] = None) -> list[int]:
    return [y for y in classical_models(p, over) if _y_is_a_minimal_for_reduct(p.rules, y, 0)]


def _y_is_a_minimal_for_reduct(red: Iterable[Rule], y: int, a: int) -> bool:
    # no y' strictly below y agreeing with y on `a` satisfies every rule of `red`
    fixed = y & a
    return not any(all(satisfies(fixed | t, r) for r in red) for t in proper_submasks(y & ~a))


def is_answer_set(y: int, p: Program) -> bool:
    """Is ``y`` an answer set of ``p``: ``y`` models ``p`` and no strict
    subset of ``y`` models the reduct of ``p`` w.r.t. ``y``.  An atom of
    ``y`` outside var(p) makes it False.  Costs up to 2^|y| model checks."""
    # every x ⊆ y misses these rules' negative bodies: `satisfies` reads the reduct
    red = [r for r in p.rules if not (r.neg & y)]
    if not all(satisfies(y, r) for r in red):
        return False
    return _y_is_a_minimal_for_reduct(red, y, 0)


def answer_sets(p: Program) -> list[int]:
    """All answer sets of ``p``: the subsets of var(p) that pass
    ``is_answer_set``, ascending."""
    var = p.var
    check_capacity(var)
    return [y for y in submasks(var) if is_answer_set(y, p)]


def _literals(rules: Iterable[Rule]) -> list[tuple[int, int, int, list[int], list[int]]]:
    """Each rule that can fail, read once per search: its body mask
    pos | neg, its positive body, its head, and the atoms of its positive
    body and of its head.  Its body holds at Y iff Y ∩ (pos | neg) = pos,
    and it fails there iff also Y misses its head.  A rule whose positive
    body meets its head or its negative body holds at every Y and is
    dropped."""
    return [(r.pos | r.neg, r.pos, r.head, list(bits(r.pos)), list(bits(r.head)))
            for r in rules if not r.pos & (r.head | r.neg)]


def _tables_at(y: int, coord: list[int]) -> tuple[dict[int, int], int]:
    """Each atom of Y with its coordinate table, and the full table.  Table j
    of ``coord`` holds the Xs ⊆ Y (bit k for the k-th in ascending order)
    with Y's j-th atom, and bits past the full table; it grows in place, so
    one list serves a Y loop."""
    n = y.bit_count()
    while len(coord) < n:  # one more coordinate doubles every table
        w = 1 << len(coord)
        coord[:] = [e | e << w for e in coord] + [((1 << w) - 1) << w]
    return dict(zip(bits(y), coord)), (1 << (1 << n)) - 1


def _cubes(lits: list[tuple[int, int, int, list[int], list[int]]], y: int, at: dict[int, int], full: int) -> Iterator[int]:
    """The cube of each rule of ``lits`` whose body holds at Y, in order:
    the Xs ⊆ Y failing it, the tables ``at`` of its positive body ANDed
    with the complements of those of its head atoms in Y."""
    for body, pos, _, pos_atoms, head_atoms in lits:
        if y & body == pos:
            t = full
            for i in pos_atoms:
                t &= at[i]
            for i in head_atoms:
                if y >> i & 1:
                    t &= ~at[i]
            yield t


def _row_table(models: int, tables: list[int], off: int, maximal: bool) -> int:
    """The row at Y as a table: ``models`` holds the Xs ⊆ Y modelling the
    reduct (the top bit is Y), ``off`` the coordinates of Y \\ A.  Empty
    unless Y models the reduct and no other model agrees with Y on A; else Y
    and each X ⊊ Y ∩ A with an extension off A modelling the reduct (with
    ``maximal``, those with no strict superset among them)."""
    n = (1 << len(tables)) - 1  # Y's own bit
    if not models >> n & 1:
        return 0
    s = models ^ 1 << n
    for j in bits(off):  # pull the models down along Y \ A
        s = (s | (s & tables[j]) >> (1 << j)) & ~tables[j]
    if s >> (n ^ off) & 1:  # an X ≠ Y with X ∩ A = Y ∩ A
        return 0
    if maximal:
        s &= ~_strict_down(s, tables)
    return s | 1 << n


def _row(lits: list[tuple[int, int, int, list[int], list[int]]], a: int, y: int, maximal: bool, coord: list[int]) -> list[int]:
    """The X of the A-SE-models ``(X, Y)`` at ``y`` (with ``maximal``, the
    A-UE-models) of the program whose ``_literals`` are ``lits``, ascending
    with ``y`` last; empty unless ``y`` models it and no ``y' ⊊ y`` agreeing
    on ``a`` models the reduct.  With ``a`` covering ``y`` these are the SE-
    and UE-models at ``y``.  ``coord`` is the list of ``_tables_at``."""
    at, full = _tables_at(y, coord)
    positions = list(bits(y))
    t = _row_table(full & ~reduce(or_, _cubes(lits, y, at, full), 0), coord[:len(positions)], project(y & ~a, positions), maximal)
    return [x for k, x in enumerate(submasks(y)) if t >> k & 1]


def _differences(p: Program, q: Program, a: int, over: int, maximal: bool) -> Iterator[int]:
    """Every Y over ``over`` at which the rows of ``p`` and ``q`` (the
    A-SE-models, or with ``maximal`` the A-UE-models) differ, ascending.

    A row at Y reads only whether Y models the program and which X ⊆ Y
    model its reduct, so only the rules that the programs do not share
    tell the rows apart.  Each rule is read into its ``_literals`` once.  A
    Y is skipped at its first failing shared rule, so only a model of the
    shared rules tests the unshared ones; it is skipped too when it fails
    both programs, or satisfies the body of no unshared rule; a Y ⊆ A
    modelling one program only is yielded at once.  Elsewhere, tables with
    one bit per X ⊆ Y hold F_s, the Xs failing a live unshared rule of side
    s, and F, those failing a live shared rule.  The models ~(F | F_p) and
    ~(F | F_q) differ exactly on (F_p ^ F_q) & ~F, so Y is skipped when
    F_p = F_q.  Else the shared cubes are ORed into F one at a time, those
    of rules inside an unshared rule first (such a cube covers that rule's),
    and Y is skipped as soon as F covers F_p ^ F_q.  Only a difference that
    survives every shared cube runs ``_row_table`` on both models.
    """
    check_capacity(over)
    shared, own = p.rules & q.rules, p.rules ^ q.rules
    if len(shared) > 1:  # the rules inside an unshared rule first: their cubes cover that rule's
        shared = sorted(shared, key=lambda r: all(r.pos & ~o.pos or r.neg & ~o.neg or r.head & ~o.head for o in own))
    shared, own_p, own_q = (_literals(rs) for rs in (shared, p.rules - q.rules, q.rules - p.rules))
    if not (own_p or own_q):  # the same rules give the same rows
        return
    fails, *own_fails = ([(body | head, pos) for body, pos, head, _, _ in lits] for lits in (shared, own_p, own_q))
    bodies = [(body, pos) for body, pos, _, _, _ in own_p + own_q]
    coord: list[int] = []
    for y in submasks(over):
        if any(y & m == b for m, b in fails):
            continue
        held = [not any(y & m == b for m, b in masks) for masks in own_fails]
        if not (held[0] or held[1]):
            continue
        if held[0] != held[1] and not y & ~a:  # Y ⊆ A is A-minimal: one row holds Y, the other is empty
            yield y
            continue
        if not any(y & m == b for m, b in bodies):  # then both hold Y, and their reducts agree below it
            continue
        at, full = _tables_at(y, coord)
        f_p, f_q = (reduce(or_, _cubes(lits, y, at, full), 0) for lits in (own_p, own_q))
        d = f_p ^ f_q  # where the models differ while F is empty
        if not d:
            continue
        f = 0
        for c in _cubes(shared, y, at, full):
            f |= c
            if not d & ~f:  # the models agree, and so do the rows
                break
        else:
            positions = list(bits(y))
            tables, off = coord[:len(positions)], project(y & ~a, positions)
            if _row_table(full & ~(f | f_p), tables, off, maximal) != _row_table(full & ~(f | f_q), tables, off, maximal):
                yield y


def _first_difference(p: Program, q: Program, a: int, over: int, maximal: bool) -> Optional[int]:
    """The least Y of ``_differences``, or None."""
    return next(_differences(p, q, a, over, maximal), None)


def _strict_down(s: int, tables: list[int]) -> int:
    """The Xs with a strict superset in the table ``s``: one step down along
    each coordinate, then the down-closure (Knuth, TAOCP 4A §7.1.3)."""
    t = 0
    for j, e in enumerate(tables):
        t |= (s & e) >> (1 << j)
    for j, e in enumerate(tables):
        t |= (t & e) >> (1 << j)
    return t


def _ase_pairs(p: Program, a: int, over: int, maximal: bool = False) -> list[tuple[int, int]]:
    """The pairs ``(x, y)`` of the rows of ``p`` over ``over`` in ``(y, x)``
    order: the A-SE-models, or with ``maximal`` the A-UE-models.
    ``over`` must cover var(p); it and the capacity are checked here."""
    lits, coord = _literals(p.rules), []
    return [(x, y) for y in submasks(_checked_over(p, over)) for x in _row(lits, a, y, maximal, coord)]


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

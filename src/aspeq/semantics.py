"""Classical satisfaction, reducts, answer sets, Horn least models, and
the pair kernel under the SE-, UE-, A-SE- and A-UE-model listings.

All enumeration is exhaustive over bit masks and guarded by a capacity cap
(24 atoms by default); every function here is pure.  The pair kernel
streams its pairs in ``(y, x)`` order: the deciders stop at the first Y
where two programs differ, and the public listings are sorted lists of it.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .syntax import Program, Rule, Universe, bits

CAPACITY = 24


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the atom cap."""


def check_capacity(mask: int, cap: int = CAPACITY) -> None:
    n = mask.bit_count()
    if n > cap:
        raise CapacityError(f"{n} atoms exceeds the enumeration cap of {cap}")


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


def answer_sets(p: Program) -> list[int]:
    """All answer sets of ``p``: minimal models of the reduct, over var(p)."""
    var = p.var
    check_capacity(var)
    out = []
    for y in submasks(var):
        # every x ⊆ y misses these rules' negative bodies: `satisfies` reads the reduct
        red = [r for r in p.rules if not (r.neg & y)]
        if not all(satisfies(y, r) for r in red):
            continue
        if any(all(satisfies(x, r) for r in red) for x in proper_submasks(y)):
            continue
        out.append(y)
    return out


def _y_is_a_minimal_for_reduct(red: Program, y: int, a: int) -> bool:
    # no y' strictly below y agreeing with y on `a` models the reduct
    fixed = y & a
    return not any(is_model(fixed | t, red) for t in proper_submasks(y & ~a))


def _ase_pairs(p: Program, a: int, over: int) -> Iterator[tuple[int, int]]:
    """The A-SE-models ``(x, y)`` of ``p`` over ``over``, streamed in
    ``(y, x)`` order; with ``a = over`` these are the SE-models.  ``over``
    must cover var(p); it and the capacity are checked at the call.

    ``y`` must model ``p`` with no ``y'`` below it, agreeing on ``a``,
    modelling the reduct; then ``(y, y)`` is a pair, and so is each ``x``
    strictly inside ``y ∩ a`` that some extension off ``a`` within ``y``
    makes a model of the reduct.
    """
    if p.var & ~over:
        raise ValueError("`over` must cover var(p)")
    check_capacity(over)
    return _ase_stream(p, a, over)


def _ase_stream(p: Program, a: int, over: int) -> Iterator[tuple[int, int]]:
    for y in submasks(over):
        if not is_model(y, p):
            continue
        red = reduct(p, y)
        if not _y_is_a_minimal_for_reduct(red, y, a):
            continue
        ya = y & a
        ext = list(submasks(y & ~a))
        for x in submasks(ya):
            if x == ya:  # the last submask; (y, y) is yielded below
                break
            for t in ext:
                if is_model(x | t, red):
                    yield x, y
                    break
        yield y, y


def _maximal_pairs(pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The total pairs of a ``(y, x)``-sorted stream, and the non-total
    pairs with no strict superset among the non-total pairs of their ``y``,
    streamed one ``y`` at a time in the same order."""
    for y, run in groupby(pairs, key=itemgetter(1)):
        xs = [x for x, _ in run]
        # a strict superset of x sorts after it within the run
        yield from ((x, y) for i, x in enumerate(xs)
                    if x == y or not any(x2 != y and not x & ~x2 for x2 in xs[i + 1:]))


def is_horn(p: Program) -> bool:
    return all(r.head.bit_count() <= 1 and r.neg == 0 for r in p.rules)


def horn_least_model(p: Program, facts: int = 0, false: int = 0) -> Optional[int]:
    """Least model of Horn ``p`` containing the atoms ``facts``, or None
    when a constraint rejects it or it meets the atoms ``false``: forward
    chaining from ``facts`` (Dowling & Gallier 1984), as if each pinned atom
    were a fact or a constraint ``:- i.`` of ``p``."""
    if not is_horn(p):
        raise ValueError("program is not Horn")
    definite = [r for r in p.rules if r.head]
    i = facts
    changed = True
    while changed:
        changed = False
        for r in definite:
            if (r.pos & ~i) == 0 and (r.head & i) == 0:
                i |= r.head
                changed = True
    if i & false:
        return None
    for r in p.rules:
        if r.head == 0 and (r.pos & ~i) == 0:
            return None
    return i


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

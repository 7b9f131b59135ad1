"""Equivalence deciders, counterexample witnesses, Horn special cases.

``decide`` serves all five modes as rows of relativized equivalence:
ordinary at A = ∅, strong and uniform at A = var(p ∪ q), each compared
by the row search ``semantics._differences``, which yields the Ys where
the rows differ.  The strong witness is built at the first; the uniform
witness tries fact sets at those Ys only.  ``decide_ordinary``,
``decide_rel_*`` and ``se.decide_strong``/``decide_uniform`` wrap it.

A ``Verdict`` carries the mode, the alphabet actually used (always
intersected with the atoms of the two programs), and — exactly when the
programs are not equivalent — a ``Witness``: a context program over the
alphabet together with an interpretation that is an answer set of one
program plus the context but not of the other.  Witnesses are re-verified
by the one-interpretation answer-set test on both sides before being
returned.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator, Optional

from .semantics import (
    _differences,
    _horn_closure,
    _literals,
    _row,
    check_capacity,
    is_answer_set,
    is_horn,
    is_model,
    reduct,
    submasks,
)
from .relativized import ASEPair
from .syntax import Program, Rule, _Record, bits, facts_program

MODES = ("ordinary", "strong", "uniform", "rel-strong", "rel-uniform")
METHODS = ("auto", "generic", "horn")


class VerificationError(Exception):
    """A witness failed re-verification by the one-interpretation
    answer-set test on both sides."""


class Witness(_Record):
    __slots__ = ("context", "distinguishing", "side")

    # side is "left" or "right": which input keeps `distinguishing`
    def __init__(self, context: Program, distinguishing: int, side: str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self._init(context, distinguishing, side)


class Verdict(_Record):
    """Equality and hash leave out ``method``, the route taken by a
    relativized or Horn decider (None for the others)."""

    __slots__ = ("equivalent", "mode", "alphabet", "witness", "method")

    def __init__(self, equivalent: bool, mode: str, alphabet: int, witness: Optional[Witness], method: Optional[str] = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if equivalent == (witness is not None):
            raise ValueError("witness must be present exactly on failure")
        self._init(equivalent, mode, alphabet, witness, method)

    def _key(self) -> tuple:
        return (self.equivalent, self.mode, self.alphabet, self.witness)


def _check_witness(p: Program, q: Program, w: Witness) -> Witness:
    keeper, loser = (p, q) if w.side == "left" else (q, p)
    for side, want in ((keeper | w.context, True), (loser | w.context, False)):
        check_capacity(side.var)
        if is_answer_set(w.distinguishing, side) != want:
            raise VerificationError("witness failed re-verification")
    return w


def _shared(p: Program, q: Program) -> None:
    if p.universe is not q.universe:
        raise ValueError("programs must share one universe")


def decide(p: Program, q: Program, mode: str, a: Optional[int] = None, method: str = "auto") -> Verdict:
    """Decide equivalence of ``p`` and ``q`` in ``mode``, one of ``MODES``.

    Every mode is a row of relativized equivalence over A.  "ordinary" is
    the "rel-strong" row at A = ∅, where the row at Y is [Y] for an answer
    set Y and empty otherwise: two inconsistent programs compare equal, and
    the witness has the empty context.  "strong" and "uniform" are the
    "rel-strong" and "rel-uniform" rows at A = var(p ∪ q).  These three
    are always enumerated and ignore ``a``.  The relativized rows use
    ``a & var(p ∪ q)`` (default: every atom) and ``method``: "generic"
    runs the row search over the A-SE-models (A-UE-models for the uniform
    kinds), whose first Y bears the strong kinds' witness; the uniform
    witness resumes the search.  "horn" runs the fact-extension decision
    for Horn programs, and "auto" takes "horn" when both are Horn and
    "generic" otherwise.  ``method`` is validated in every mode."""
    _shared(p, q)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    over = p.var | q.var
    route = None
    if mode.startswith("rel-"):
        a = over if a is None else a & over
        route = _route(p, q, a, method)
        if route == "horn":
            return decide_horn_rel(p, q, a, mode)
    else:
        a = 0 if mode == "ordinary" else over
    strong = not mode.endswith("uniform")
    ys = _differences(p, q, a, over, maximal=not strong)
    y = next(ys, None)
    if y is None:
        return Verdict(True, mode, a, None, route)
    w = _strong_witness(p, q, a, y) if strong else _uniform_witness(p, q, a, chain([y], ys))
    return Verdict(False, mode, a, w, route)


def decide_ordinary(p: Program, q: Program) -> Verdict:
    """Same answer sets; two inconsistent programs compare equal."""
    return decide(p, q, "ordinary")


def decide_rel_strong(p: Program, q: Program, a: int, method: str = "auto") -> Verdict:
    """Strong equivalence relative to the alphabet ``a``; see ``decide``."""
    return decide(p, q, "rel-strong", a, method)


def decide_rel_uniform(p: Program, q: Program, a: int, method: str = "auto") -> Verdict:
    """Uniform equivalence relative to the alphabet ``a``; see ``decide``."""
    return decide(p, q, "rel-uniform", a, method)


def _fact_contexts(a: int) -> Iterator[int]:
    """The fact masks over ``a``, smallest first, equal sizes by mask,
    made lazily: the combinations of the atoms, highest first, come in
    descending mask order, so each size's list is reversed."""
    atoms = [1 << i for i in reversed(list(bits(a)))]
    for k in range(len(atoms) + 1):
        yield from reversed([sum(c) for c in combinations(atoms, k)])


def _first_witness(p: Program, q: Program, contexts: Iterable[Program]) -> Optional[Witness]:
    """The witness at the first context on which the answer sets of ``p``
    and ``q`` differ (its least differing answer set), or None.  Each
    context scans the Ys over var(p ∪ q ∪ ctx) in ascending order up to the
    first one that is an answer set on one side only."""
    for ctx in contexts:
        pc, qc = p | ctx, q | ctx
        over = pc.var | qc.var
        check_capacity(over)
        for y in submasks(over):
            left = is_answer_set(y, pc)
            if left != is_answer_set(y, qc):
                return Witness(ctx, y, "left" if left else "right")
    return None


def _route(p: Program, q: Program, a: int, method: str) -> str:
    if method == "auto":
        return "horn" if is_horn(p) and is_horn(q) and a.bit_count() <= 20 else "generic"
    return method


def _pairs_by_check(a: int, over: int, member) -> list[ASEPair]:
    """Every candidate A-pair over ``over`` that passes ``member``.

    No decider uses it: it lists the pairs that a per-pair membership test
    (``ase_check_normal``, ``aue_check_hcf``) accepts, for comparison with
    the enumerated models in the tests and ``scripts/random_agreement.py``.
    The traced benchmark run wraps it by name.
    """
    check_capacity(over)
    out = []
    for y in submasks(over):
        ya = y & a
        for x in [y] + [x for x in submasks(ya) if x != ya]:
            pr = ASEPair(x, y, a)
            if member(pr):
                out.append(pr)
    return out


def build_strong_witness(p: Program, q: Program, a: int) -> Witness:
    """Unary context separating two rel-strong-inequivalent programs.

    The witness of ``decide(p, q, "rel-strong", a, "generic")``, built at
    the least interpretation Y where the A-SE-models of the two programs
    over var(p ∪ q) differ; an alphabet atom outside var(p ∪ q) would not
    change that Y or the context.  In either argument order, the first
    program's row at Y is not empty (Y models it with no smaller model
    agreeing on the alphabet), and Y either fails the second program
    (context = facts of Y ∩ a) or admits an X ≠ Y below Y modelling the
    second program's reduct whose part X ∩ a is not in that row, so no
    X' = (X ∩ a) ∪ T, T ⊆ Y \\ a, X' ≠ Y, models the first program's reduct
    (context = facts of X ∩ a plus all unary rules between distinct atoms
    of (Y \\ X) ∩ a).  The A-minimality of Y and the condition on X make Y
    an answer set of the first program plus the context and not of the
    second, which ``_check_witness`` re-verifies.  Raises
    ``AssertionError`` when the listings agree.
    """
    return _generic_witness(p, q, "rel-strong", a, "strongly")


def _generic_witness(p: Program, q: Program, mode: str, a: int, kind: str) -> Witness:
    # the witness of `decide`'s generic route in `mode`; `kind` names the equivalence in the error
    w = decide(p, q, mode, a, "generic").witness
    if w is None:
        raise AssertionError(f"no witness found; programs appear {kind} equivalent")
    return w


def _strong_witness(p: Program, q: Program, a: int, y: int) -> Witness:
    # the context of `build_strong_witness` at `y`, the least Y where the A-SE-models differ
    for first, second, side in ((p, q, "left"), (q, p, "right")):
        row = set(_row(_literals(first.rules), a, y, False, []))
        if not row:
            continue
        if not is_model(y, second):
            ctx = facts_program(y & a, p.universe)
        else:
            red_second = reduct(second, y)
            x = next((x for x in submasks(y) if x != y and (x & a) not in row and is_model(x, red_second)), None)
            if x is None:
                continue
            grow = (y & ~x) & a
            rules = {Rule(1 << i, 0, 0) for i in bits(x & a)}
            rules |= {Rule(1 << i, 1 << j, 0) for i in bits(grow) for j in bits(grow) if i != j}
            ctx = Program(frozenset(rules), p.universe)
        return _check_witness(p, q, Witness(ctx, y, side))
    raise AssertionError(f"no witness at the first differing Y {y}")


def build_uniform_witness(p: Program, q: Program, a: int) -> Witness:
    """The witness of ``decide(p, q, "rel-uniform", a, "generic")``: the
    smallest fact set over ``a`` on which the answer sets differ, with the
    least answer set of one side only, searched at ``a & var(p ∪ q)`` (a fact
    outside joins every answer set on both sides); ``AssertionError`` if none."""
    return _generic_witness(p, q, "rel-uniform", a, "uniformly")


def _uniform_witness(p: Program, q: Program, a: int, ys: Iterator[int]) -> Witness:
    """The first F of ``_fact_contexts(a)`` with the least Y ⊇ F that is an
    answer set of one side plus F only, tried at ``ys``, where the A-UE
    rows differ (Y is an answer set of P ∪ F iff P's row at Y is not empty
    and no X ≠ Y in it contains F).  F = ∅ reads ``ys`` lazily; each later
    F reads only the Ys that F = ∅ read."""
    seen: list[int] = []
    for f in _fact_contexts(a):
        ctx = facts_program(f, p.universe)
        pc, qc = p | ctx, q | ctx
        for y in (y for y in seen if not f & ~y) if f else ys:
            if not f:
                seen.append(y)
            left = is_answer_set(y, pc)
            if left != is_answer_set(y, qc):
                return _check_witness(p, q, Witness(ctx, y, "left" if left else "right"))
    raise AssertionError("no witness found; programs appear uniformly equivalent")


def decide_horn_rel(p: Program, q: Program, a: int, mode: str = "rel-uniform") -> Verdict:
    """Horn decision by one ordinary check per fact set over the alphabet.

    A Horn program has the least model of its definite part as single
    answer set, or none when a constraint rejects it; strong and uniform
    relativized equivalence coincide on Horn programs, so one decider
    serves both modes.
    """
    _shared(p, q)
    if not (is_horn(p) and is_horn(q)):
        raise ValueError("both programs must be Horn")
    a &= p.var | q.var
    if a.bit_count() > 20:
        raise ValueError("alphabet too large for fact-set enumeration")
    least_p, least_q = _horn_closure(p), _horn_closure(q)
    for f in _fact_contexts(a):
        lp = least_p(f)
        lq = least_q(f)
        if lp != lq:
            d = lp if lp is not None else lq
            w = Witness(facts_program(f, p.universe), d, "left" if lp is not None else "right")
            return Verdict(False, mode, a, _check_witness(p, q, w), "horn")
    return Verdict(True, mode, a, None, "horn")


def decide_horn_bounded(p: Program, q: Program, a: int, mode: str = "rel-uniform") -> Verdict:
    """Horn decision driven by renamed-copy derivability tests.

    Atoms outside the alphabet (the set V, at most 20) are enumerated: for
    each direction and each U ⊆ V the test looks for one W ⊆ U such that
    the first program with V renamed apart, pinned to exactly U on the
    renamed copy and exactly W on the original V-atoms, derives the second
    program; the renamed V-atoms take the ids after the universe's own, and
    no universe holds them.  Such a uniform W is sufficient but not
    necessary, so when none exists the condition is re-checked exactly per
    alphabet part.
    """
    _shared(p, q)
    if not (is_horn(p) and is_horn(q)):
        raise ValueError("both programs must be Horn")
    over = p.var | q.var
    a_eff = a & over
    v = over & ~a_eff
    if v.bit_count() > 20:
        raise ValueError("too many atoms outside the alphabet")
    if a_eff.bit_count() > 20:
        raise ValueError("alphabet too large")
    if all(_horn_direction(f, s, a_eff, v) for f, s in ((p, q), (q, p))):
        return Verdict(True, mode, a_eff, None, "horn-bounded")
    return Verdict(False, mode, a_eff, build_uniform_witness(p, q, a_eff), "horn-bounded")


def _horn_direction(first: Program, second: Program, a: int, v: int) -> bool:
    # every model of `first` must shrink, inside its own V-part and with the
    # alphabet part untouched, to a model of `second`
    prime = {i: len(first.universe) + k for k, i in enumerate(bits(v))}

    def rename(mask: int) -> int:
        out = mask & ~v
        for i in bits(mask & v):
            out |= 1 << prime[i]
        return out

    renamed = Program(frozenset(Rule(rename(r.head), rename(r.pos), 0) for r in first.rules), first.universe)
    least_renamed, least_second = _horn_closure(renamed), _horn_closure(second)
    for u in submasks(v):
        for w in submasks(u):
            pins, kills = rename(u) | w, rename(v & ~u) | (v & ~w)
            if not any(least_renamed(pins | r.pos, kills | r.head) is not None for r in second.rules):
                break
        else:  # no uniform W: check each alphabet part R exactly
            if any(least_second(r_part, (a & ~r_part) | (v & ~u)) is None
                   for r_part in submasks(a) if is_model(r_part | u, first)):
                return False
    return True


def brute_force_oracle(p: Program, q: Program, a: int, mode: str) -> Verdict:
    """Definitional verdicts by enumerating every context.

    ``mode``: "ordinary" (no context), "uniform" (every fact set over the
    alphabet, at most 12 atoms), or "strong" (every unary program over the
    alphabet, at most 3 atoms).
    """
    _shared(p, q)
    if mode == "ordinary":
        w = _first_witness(p, q, [Program(frozenset(), p.universe)])
        return Verdict(w is None, "ordinary", 0, w)
    if mode == "uniform":
        if a.bit_count() > 12:
            raise ValueError("alphabet too large for the uniform oracle")
        w = _first_witness(p, q, (facts_program(f, p.universe) for f in _fact_contexts(a)))
        return Verdict(w is None, "rel-uniform", a, w)
    if mode == "strong":
        if a.bit_count() > 3:
            raise ValueError("alphabet too large for the unary-context oracle")
        rules = unary_rules(a)
        picks = range(1 << len(rules))
        w = _first_witness(p, q, (Program(frozenset(rules[i] for i in bits(k)), p.universe) for k in picks))
        return Verdict(w is None, "rel-strong", a, w)
    raise ValueError(f"unknown oracle mode {mode!r}")


def unary_rules(a: int) -> list[Rule]:
    """All unary rules over the alphabet: facts and single-body rules."""
    out = [Rule(1 << i, 0, 0) for i in bits(a)]
    out += [Rule(1 << i, 1 << j, 0) for i in bits(a) for j in bits(a)]
    return out

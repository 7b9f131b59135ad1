"""Relativized SE/UE-models over an alphabet A, and A-minimal models.

An A-SE-interpretation is a pair (X, Y) with X = Y or X a strict subset of
Y ∩ A.  ``ase_models`` and ``aue_models`` list the per-Y rows
(``semantics._row``, with ``maximal`` for A-UE) as ``ASEPair``; A-minimality
is ``semantics._y_is_a_minimal_for_reduct``.  Membership tests come in a
generic form and, for normal and head-cycle-free programs, in polynomial
Horn-based forms that decide a single pair.
"""

from __future__ import annotations

from typing import Optional

from .semantics import (
    _ase_pairs,
    _y_is_a_minimal_for_reduct,
    classical_models,
    horn_least_model,
    horn_satisfiable,
    is_model,
    reduct,
    submasks,
)
from .syntax import Program, _Record, bits
from .transforms import is_hcf, shift_program


class ASEPair(_Record):
    """Pair (x, y) relative to alphabet ``a``; x == y or x ⊂ (y ∩ a)."""

    __slots__ = ("x", "y", "a")

    def __init__(self, x: int, y: int, a: int):
        if not valid_shape(x, y, a):
            raise ValueError("pair must satisfy x = y or x ⊂ (y ∩ a)")
        self._init(x, y, a)

    @property
    def total(self) -> bool:
        return self.x == self.y


def valid_shape(x: int, y: int, a: int) -> bool:
    if x == y:
        return True
    ya = y & a
    return (x & ~ya) == 0 and x != ya


def is_ase_model(p: Program, pair: ASEPair) -> bool:
    """Generic membership test straight from the definition."""
    x, y, a = pair.x, pair.y, pair.a
    if not is_model(y, p):
        return False
    red = reduct(p, y)
    if not _y_is_a_minimal_for_reduct(red.rules, y, a):
        return False
    if x == y:
        return True
    # some extension of x inside y, off the alphabet, must model the reduct
    free = y & ~a
    return any(is_model(x | t, red) for t in submasks(free))


def ase_models(p: Program, a: int, over: Optional[int] = None) -> list[ASEPair]:
    """All A-SE-models of ``p`` over the atoms in ``over`` (default var(p) ∪ a)."""
    if over is None:
        over = p.var | a
    return [ASEPair(x, y, a) for x, y in _ase_pairs(p, a, over)]


def aue_models(p: Program, a: int, over: Optional[int] = None) -> list[ASEPair]:
    """A-UE-models: the A-SE-models that are total or maximal among the
    non-total ones with the same y."""
    if over is None:
        over = p.var | a
    return [ASEPair(x, y, a) for x, y in _ase_pairs(p, a, over, maximal=True)]


def a_minimal_models(p: Program, a: int, over: Optional[int] = None) -> list[int]:
    """Classical models with no strictly smaller model agreeing on ``a``."""
    models = classical_models(p, over if over is not None else (p.var | a))
    return [y for y in models if _y_is_a_minimal_for_reduct(p.rules, y, a)]


def ase_check_normal(p: Program, pair: ASEPair, over: Optional[int] = None) -> bool:
    """Polynomial A-SE membership test for normal programs.

    Three steps on the Horn reduct, with atoms pinned in its least-model
    closure: y models the reduct; the least model above y ∩ a that stays
    inside y is y itself (no smaller model agrees with y on the alphabet);
    and, for non-total pairs, x extends to a model of the reduct inside y
    that misses the alphabet atoms beyond x.
    """
    if any(r.head.bit_count() > 1 for r in p.rules):
        raise ValueError("program is not normal")
    x, y, a = pair.x, pair.y, pair.a
    if over is None:
        over = p.var | a | y
    red = reduct(p, y)
    if not is_model(y, red) or horn_least_model(red, y & a, over & ~y) not in (None, y):
        return False
    return x == y or horn_satisfiable(red, x, (over & ~y) | (a & ~x))


def aue_check_hcf(p: Program, pair: ASEPair, over: Optional[int] = None) -> bool:
    """Polynomial A-UE membership test for head-cycle-free programs.

    The program is shifted to a normal one (which preserves relativized
    uniform equivalence), then checked with the normal-program procedure;
    for non-total pairs the middle step becomes a Horn entailment: for each
    alphabet atom beyond x, the least model above x and that atom leaves y
    or is y itself.
    """
    if not is_hcf(p):
        raise ValueError("program is not head-cycle free")
    ps = shift_program(p)
    x, y, a = pair.x, pair.y, pair.a
    if over is None:
        over = p.var | a | y
    if pair.total:
        return ase_check_normal(ps, pair, over)
    red = reduct(ps, y)
    if not is_model(y, red):
        return False
    if any(horn_least_model(red, x | 1 << i, over & ~y) not in (None, y) for i in bits(a & ~x)):
        return False
    return horn_satisfiable(red, x, (over & ~y) | (a & ~x))

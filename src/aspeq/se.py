"""SE-models, UE-models, SE/UE-consequence, strong and uniform equivalence.

An SE-pair is an ordered pair of interpretation masks ``(x, y)`` with
``x`` a subset of ``y``.  SE-models are the A-SE-models with ``a = over``,
listed row by row (``semantics._row``), and UE-models the maximal rows
(``_row`` with ``maximal``); the listings are sorted by ``(y, x)``, and
``over`` must cover var(p).  ``decide`` compares the rows of two programs
up to the first differing Y (``semantics._first_difference``), and
SE-/UE-consequence of a rule r asks it whether adding r changes them.
"""

from __future__ import annotations

from typing import Optional

from .equivalence import Verdict, decide
from .semantics import _ase_pairs, _first_difference, is_model, reduct
from .syntax import Program, Rule

SEPair = tuple[int, int]


def is_se_model(p: Program, x: int, y: int) -> bool:
    """(x, y) is an SE-model of p: y models p and x models the reduct."""
    if x & ~y:
        raise ValueError("x must be a subset of y")
    return is_model(y, p) and is_model(x, reduct(p, y))


def se_models(p: Program, over: Optional[int] = None) -> list[SEPair]:
    """All SE-models of ``p`` over the atoms in ``over`` (default var(p))."""
    if over is None:
        over = p.var
    return _ase_pairs(p, over, over)


def ue_models(p: Program, over: Optional[int] = None) -> list[SEPair]:
    """SE-models that are total or maximal among the non-total ones per y."""
    if over is None:
        over = p.var
    return _ase_pairs(p, over, over, maximal=True)


def se_consequence(p: Program, r: Rule) -> bool:
    """Every SE-model of ``p`` is an SE-model of {r}: adding ``r`` keeps them."""
    over = p.var | r.atoms
    return _first_difference(p, p | Program(frozenset([r]), p.universe), over, over, maximal=False) is None


def ue_consequence(p: Program, r: Rule) -> bool:
    """Every UE-model of ``p`` is an SE-model of {r}: adding ``r`` keeps them."""
    over = p.var | r.atoms
    return _first_difference(p, p | Program(frozenset([r]), p.universe), over, over, maximal=True) is None


def ue_class_check(p: Program) -> bool:
    """Does every UE-model (X, Y) of ``p`` satisfy X |= p classically?

    When true, UE-consequence collapses to classical consequence.
    """
    return all(is_model(x, p) for x, _ in ue_models(p))


def decide_strong(p: Program, q: Program) -> Verdict:
    """Strong equivalence: SE-model sets over var(p+q) coincide."""
    return decide(p, q, "strong")


def decide_uniform(p: Program, q: Program) -> Verdict:
    """Uniform equivalence of finite programs: UE-model sets coincide."""
    return decide(p, q, "uniform")

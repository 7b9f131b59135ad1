"""Relativized SE/UE-models over an alphabet A, and A-minimal models.

An A-SE-interpretation is a pair (X, Y) with X = Y or X a strict subset of
Y ∩ A.  ``ase_models`` and ``aue_models`` wrap the pair kernel's listing
(``semantics._ase_pairs``, and its maximal pairs for A-UE) in ``ASEPair``.
Membership tests come in a generic form and, for normal and
head-cycle-free programs, in polynomial Horn-based forms that decide a
single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import (
    _ase_pairs,
    _maximal_pairs,
    _y_is_a_minimal_for_reduct,
    bound_sets,
    classical_models,
    horn_satisfiable,
    is_model,
    reduct,
    submasks,
)
from .syntax import Program, Rule, bits
from .transforms import is_hcf, shift_program


@dataclass(frozen=True)
class ASEPair:
    """Pair (x, y) relative to alphabet ``a``; x == y or x ⊂ (y ∩ a)."""

    x: int
    y: int
    a: int

    def __post_init__(self):
        if not valid_shape(self.x, self.y, self.a):
            raise ValueError("pair must satisfy x = y or x ⊂ (y ∩ a)")

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
    if not _y_is_a_minimal_for_reduct(red, y, a):
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
    return [ASEPair(x, y, a) for x, y in _maximal_pairs(_ase_pairs(p, a, over))]


def a_minimal_models(p: Program, a: int, over: Optional[int] = None) -> list[int]:
    """Classical models with no strictly smaller model agreeing on ``a``."""
    models = classical_models(p, over if over is not None else (p.var | a))
    return [y for y in models if _y_is_a_minimal_for_reduct(p, y, a)]


def ase_check_normal(p: Program, pair: ASEPair, over: Optional[int] = None) -> bool:
    """Polynomial A-SE membership test for normal programs.

    Three Horn satisfiability steps: y models the reduct; no smaller model
    agreeing on the alphabet survives; and (for non-total pairs) the x-part
    extends to a model of the reduct inside y.
    """
    if any(r.head.bit_count() > 1 for r in p.rules):
        raise ValueError("program is not normal")
    x, y, a = pair.x, pair.y, pair.a
    if over is None:
        over = p.var | a | y
    red = reduct(p, y)
    if not is_model(y, red):
        return False
    subset, strict, _ = bound_sets(y, over, p.universe)
    fact_ya = {Rule(1 << i, 0, 0) for i in bits(y & a)}
    p_y = Program(red.rules | strict.rules | fact_ya, p.universe)
    if horn_satisfiable(p_y):
        return False
    if x == y:
        return True
    fact_x = {Rule(1 << i, 0, 0) for i in bits(x)}
    kill_a = {Rule(0, 1 << i, 0) for i in bits(a & ~x)}
    p_x = Program(red.rules | subset.rules | fact_x | kill_a, p.universe)
    return horn_satisfiable(p_x)


def aue_check_hcf(p: Program, pair: ASEPair, over: Optional[int] = None) -> bool:
    """Polynomial A-UE membership test for head-cycle-free programs.

    The program is shifted to a normal one (which preserves relativized
    uniform equivalence), then checked with the normal-program procedure;
    for non-total pairs the middle step becomes a Horn entailment of the
    x-part pinned to the alphabet.
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
    subset, strict, _ = bound_sets(y, over, p.universe)
    fact_x = {Rule(1 << i, 0, 0) for i in bits(x)}
    base = Program(red.rules | strict.rules | fact_x, p.universe)
    # entailment of "no alphabet atom beyond x": adding any such atom as a
    # fact must make the theory unsatisfiable
    for i in bits(a & ~x):
        if horn_satisfiable(Program(base.rules | {Rule(1 << i, 0, 0)}, p.universe)):
            return False
    kill_a = {Rule(0, 1 << i, 0) for i in bits(a & ~x)}
    p_x = Program(red.rules | subset.rules | fact_x | kill_a, p.universe)
    return horn_satisfiable(p_x)


def ase_consequence(p: Program, r: Rule, a: int) -> bool:
    """Relativized SE-consequence: every A-SE-model of p is one of {r}."""
    single = Program(frozenset([r]), p.universe)
    over = p.var | r.atoms | a
    for pr in ase_models(p, a, over):
        if not is_ase_model(single, pr):
            return False
    return True

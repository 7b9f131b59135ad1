"""Syntactic program classes (flags only; no decider routes on them)."""

from __future__ import annotations

from .syntax import Program, _Record
from .transforms import is_hcf


class ProgramClass(_Record):
    __slots__ = ("horn", "definite", "unary", "normal", "positive", "hcf", "disjunctive")

    def __init__(self, horn: bool, definite: bool, unary: bool, normal: bool, positive: bool, hcf: bool, disjunctive: bool):
        self._init(horn, definite, unary, normal, positive, hcf, disjunctive)

    @property
    def flags(self) -> frozenset[str]:
        return frozenset(n for n in self.__slots__ if getattr(self, n))


def classify(p: Program) -> ProgramClass:
    """Compute all class flags for ``p``.

    Constraints count as normal (head size at most one admits zero) and,
    when negation-free, as Horn.
    """
    normal = all(r.head.bit_count() <= 1 for r in p.rules)
    positive = all(r.neg == 0 for r in p.rules)
    definite = all(r.head.bit_count() == 1 for r in p.rules)
    horn = normal and positive
    unary = horn and definite and all(r.pos.bit_count() <= 1 for r in p.rules)
    disjunctive = any(r.head.bit_count() >= 2 for r in p.rules)
    return ProgramClass(
        horn=horn,
        definite=definite,
        unary=unary,
        normal=normal,
        positive=positive,
        hcf=is_hcf(p),
        disjunctive=disjunctive,
    )

"""Syntax: atoms, rules, programs, parsing and rendering.

Atoms are interned into a ``Universe`` which assigns dense integer ids;
interpretations and the three components of a rule are represented as bit
masks over those ids.  Programs are immutable once built, so they are safe
to share between threads.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|%[^\n]*)
  | (?P<arrow>:-)
  | (?P<pipe>\|)
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Record:
    """Behaviour shared by the package's records.  A record names its
    fields in order in ``__slots__`` and sets them with ``_init``; equality
    and hash read the tuple ``_key()`` (every field unless a record
    overrides it); pickle and copies rebuild a record through its
    constructor.  Records are frozen unless they restore ``__setattr__``
    and ``__delattr__``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _init(self, *values) -> None:
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)


class Atom(_Record):
    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str):
        self._init(id, name)


class Universe:
    """Append-only atom table shared by one or more programs."""

    def __init__(self, names: Iterable[str] = ()):  # noqa: D401
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> int:
        """Return the id of ``name``, adding it if unseen."""
        i = self.index.get(name)
        if i is None:
            if not ATOM_RE.fullmatch(name) or name == "not":
                raise ValueError(f"invalid atom name: {name!r}")
            i = len(self.names)
            self.names.append(name)
            self.index[name] = i
        return i

    def atom(self, i: int) -> Atom:
        return Atom(i, self.names[i])

    def __len__(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            m |= 1 << self.intern(n)
        return m

    def decode(self, mask: int) -> tuple[str, ...]:
        """Atom names in ``mask``, sorted alphabetically."""
        return tuple(sorted(self.names[i] for i in bits(mask)))

    def fmt(self, mask: int) -> str:
        """Render an interpretation as ``{a,b}``; the empty set is ``{}``."""
        return "{" + ",".join(self.decode(mask)) + "}"

    def fmt_pair(self, x: int, y: int) -> str:
        return f"({self.fmt(x)},{self.fmt(y)})"


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def project(mask: int, positions: list[int]) -> int:
    """Compress the bits of ``mask`` at ``positions`` into a small mask."""
    return sum(1 << k for k, i in enumerate(positions) if mask >> i & 1)


class Rule(_Record):
    """A rule head ; pos_body ; neg_body, each a bit mask over the universe.

    An empty head makes the rule a constraint; empty head and empty body is
    the always-violated constraint (falsity).
    """

    __slots__ = ("head", "pos", "neg")

    # written out, not inherited: rules are built, hashed and compared in the enumeration loops
    def __init__(self, head: int, pos: int, neg: int):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.head == other.head and self.pos == other.pos and self.neg == other.neg
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.head, self.pos, self.neg))

    @property
    def is_constraint(self) -> bool:
        return self.head == 0

    @property
    def atoms(self) -> int:
        return self.head | self.pos | self.neg


class Program(_Record):
    """Rules over a ``Universe``; equality and hash read the rules only."""

    __slots__ = ("rules", "universe")

    def __init__(self, rules: frozenset[Rule], universe: Universe):
        self._init(rules, universe)

    def _key(self) -> tuple:
        return (self.rules,)

    @property
    def var(self) -> int:
        """Mask of atoms occurring in some rule."""
        m = 0
        for r in self.rules:
            m |= r.atoms
        return m

    def union(self, other: "Program") -> "Program":
        if self.universe is not other.universe:
            raise ValueError("programs must share one universe")
        return Program(self.rules | other.rules, self.universe)

    def __or__(self, other: "Program") -> "Program":
        return self.union(other)


def var_of(p: Program) -> int:
    """Mask of all atoms occurring in ``p``."""
    return p.var


def facts_program(mask: int, universe: Universe) -> Program:
    """The program consisting of one fact per atom in ``mask``."""
    return Program(frozenset(Rule(1 << i, 0, 0) for i in bits(mask)), universe)


def parse_program(text: str, universe: Optional[Universe] = None) -> Program:
    """Parse program text; see the grammar in the README.

    A shared ``universe`` lets two programs be parsed over one atom table
    (ids are stable and extended in first-occurrence order).  Atoms are
    interned only once the whole text has parsed, so a ``ParseError``
    leaves ``universe`` as it was.
    """
    tokens = _tokenize(text)
    parsed = []  # per rule, its atoms as (part, name) in text order; part 0 head, 1 pos, 2 neg
    i = 0
    while tokens[i][0] != "end":
        atoms = []
        if tokens[i][0] == "word":
            atoms.append((0, _atom_name(tokens[i], text)))
            i += 1
            while tokens[i][0] == "pipe":
                atoms.append((0, _atom_name(tokens[i + 1], text)))
                i += 2
        more = tokens[i][0] == "arrow"
        while more:  # tokens[i] is the ":-" or "," before a body literal
            neg = tokens[i + 1][:2] == ("word", "not")
            i += 1 + neg
            atoms.append((1 + neg, _atom_name(tokens[i], text)))
            i += 1
            more = tokens[i][0] == "comma"
        if tokens[i][0] != "dot":
            raise ParseError("expected dot", *_line_col(text, tokens[i][2]))
        i += 1
        parsed.append(atoms)
    uni = universe if universe is not None else Universe()
    rules = set()
    for atoms in parsed:
        masks = [0, 0, 0]
        for part, name in atoms:
            masks[part] |= 1 << uni.intern(name)
        rules.add(Rule(*masks))
    return Program(frozenset(rules), uni)


def _atom_name(tok, text: str) -> str:
    kind, name, at = tok
    if kind != "word":
        raise ParseError("expected atom", *_line_col(text, at))
    if name == "not" or not ATOM_RE.fullmatch(name):
        raise ParseError(f"invalid atom token {name!r}", *_line_col(text, at))
    return name


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, value, offset) per token, then ("end", "", len(text))
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", *_line_col(text, m.start()))
        if kind != "skip":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _line_col(text: str, at: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``at`` of ``text``."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def rule_to_str(r: Rule, universe: Universe) -> str:
    head = " | ".join(universe.decode(r.head))
    body = [*universe.decode(r.pos)]
    body += [f"not {n}" for n in universe.decode(r.neg)]
    if body:
        sep = " " if head else ""
        return f"{head}{sep}:- {', '.join(body)}."
    # a bare "." is the always-violated constraint (empty head, empty body)
    return f"{head}." if head else "."


def canonical_rules(p: Program) -> list[Rule]:
    """The rules of ``p`` in canonical order: sorted by (head, pos, neg) masks,
    so the order is canonical only within one ``Universe``."""
    return sorted(p.rules, key=lambda r: (r.head, r.pos, r.neg))


def render(p: Program) -> str:
    """Canonical text form: one line per rule, in ``canonical_rules`` order,
    which is canonical only within one ``Universe``."""
    return "\n".join(rule_to_str(r, p.universe) for r in canonical_rules(p))

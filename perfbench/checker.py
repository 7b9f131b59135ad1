"""Definitional answer-set checks that share no code with aspeq.

Programs are lists of rules ``(head, pos, neg)``, each a frozenset of atom
names.  ``is_answer_set`` tests the Gelfond-Lifschitz definition directly:
M models the program, and no proper subset of M models the reduct.  The
benchmark uses these checks to accept a "not equivalent" verdict only when
its witness holds up, and to certify the near-miss pairs it generates.
"""

from __future__ import annotations

from typing import Iterable, Optional

Rule = tuple[frozenset, frozenset, frozenset]

MODES = ("ordinary", "strong", "uniform", "rel-strong", "rel-uniform")


def parse(text: str) -> list[Rule]:
    """Parse the rule syntax aspeq reads and prints (``%`` comments allowed)."""
    body_text = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    stmts = body_text.split(".")
    if stmts[-1].strip():
        raise ValueError(f"statement without final '.': {stmts[-1].strip()!r}")
    return [parse_rule(s + ".") for s in stmts[:-1]]


def parse_rule(stmt: str) -> Rule:
    """Parse one rule; the trailing '.' is optional."""
    stmt = stmt.strip().removesuffix(".")
    head_text, arrow, body_text = stmt.partition(":-")
    head = frozenset(a.strip() for a in head_text.split("|") if a.strip())
    pos, neg = set(), set()
    if arrow:
        for lit in body_text.split(","):
            words = lit.split()
            if len(words) == 2 and words[0] == "not":
                neg.add(words[1])
            elif len(words) == 1:
                pos.add(words[0])
            else:
                raise ValueError(f"bad body literal {lit!r}")
    return head, frozenset(pos), frozenset(neg)


def render(rules: Iterable[Rule]) -> str:
    """Text form of ``rules``, one per line, in the given order."""
    return "\n".join(render_rule(r) for r in rules)


def render_rule(r: Rule) -> str:
    head, pos, neg = r
    body = sorted(pos) + [f"not {a}" for a in sorted(neg)]
    head_text = " | ".join(sorted(head))
    if body:
        return f"{head_text}{' ' if head_text else ''}:- {', '.join(body)}."
    return f"{head_text}."


def atoms(rules: Iterable[Rule]) -> frozenset:
    out = set()
    for h, p, n in rules:
        out |= h | p | n
    return frozenset(out)


def is_model(m: frozenset, rules: Iterable[Rule]) -> bool:
    """Classical satisfaction of every rule."""
    return all(not (p <= m and not (n & m)) or (h & m) for h, p, n in rules)


def is_answer_set(rules: list[Rule], m: frozenset) -> bool:
    """M models the program and no proper subset of M models the reduct."""
    if not is_model(m, rules):
        return False
    order = sorted(m)
    index = {a: i for i, a in enumerate(order)}
    full = (1 << len(order)) - 1
    # reduct rules whose positive body lies inside M; any other rule is
    # satisfied by every subset of M
    red = []
    for h, p, n in rules:
        if n & m or not p <= m:
            continue
        pos_bits = sum(1 << index[a] for a in p)
        head_bits = sum(1 << index[a] for a in h & m)
        red.append((pos_bits, head_bits))
    for x in range(full):
        if all((pos & ~x) or (head & x) for pos, head in red):
            return False
    return True


def verify_witness(
    p: list[Rule],
    q: list[Rule],
    mode: str,
    alphabet: Optional[frozenset],
    context: list[Rule],
    distinguishing: frozenset,
    side: str,
) -> Optional[str]:
    """Why the witness fails, or None when it proves non-equivalence.

    The context must be admissible for ``mode`` (empty for ordinary, facts
    for uniform, atoms inside ``alphabet`` for the relativized modes), and
    ``distinguishing`` must be an answer set of the keeping side plus the
    context and not of the other side plus the context.
    """
    if mode not in MODES:
        return f"unknown mode {mode!r}"
    if side not in ("left", "right"):
        return f"bad side {side!r}"
    if mode == "ordinary" and context:
        return "ordinary witness with a non-empty context"
    if mode in ("uniform", "rel-uniform"):
        for h, pos, neg in context:
            if len(h) != 1 or pos or neg:
                return f"uniform context holds a non-fact {render_rule((h, pos, neg))}"
    if mode.startswith("rel-"):
        outside = atoms(context) - (alphabet or frozenset())
        if outside:
            return f"context uses atoms outside the alphabet: {sorted(outside)}"
    keeper, loser = (p, q) if side == "left" else (q, p)
    if not is_answer_set(keeper + context, distinguishing):
        return "distinguishing set is not an answer set of the keeping side"
    if is_answer_set(loser + context, distinguishing):
        return "distinguishing set is an answer set of both sides"
    return None

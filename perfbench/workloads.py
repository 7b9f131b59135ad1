"""Seeded program pairs and the four benchmark workloads.

Every pair comes with its expected verdict, known by construction:

* ``equal``: Q is P plus weakened copies of some of its rules (one extra
  body literal or head atom each).  A weakened copy is an SE-consequence of
  its original, so P and Q are strongly equivalent and hence equivalent in
  every mode and for every alphabet.
* ``dropped``, ``shifted``, ``constraint``: Q differs from P by one rule,
  and the pair carries a certificate M that is an answer set of P but not
  of Q.  Every mode admits the empty context, so such a pair is
  non-equivalent in every mode.
* ``shifted-hcf``: Q shifts one disjunction of the head-cycle-free chain.
  That keeps ordinary and (relativized) uniform equivalence; a two-rule
  context, the pair's certificate, separates the strong modes.

``certify`` re-checks every certificate with the definitional test in
``checker``.  The seed picks atom labels, random programs and the
malformed CLI inputs; the mix of families, sizes, changed rules and modes
per workload is fixed, so runs with different seeds do the same amount of
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

import checker
from checker import Rule

MODES = checker.MODES


def R(head=(), pos=(), neg=()) -> Rule:
    return frozenset(head), frozenset(pos), frozenset(neg)


@dataclass(frozen=True)
class Pair:
    family: str
    atoms: int
    kind: str
    p: tuple
    q: tuple
    alphabet: frozenset  # of the relativized checks
    equivalent_in: frozenset  # the modes in which P and Q are equivalent
    # for the other modes: a context C and an answer set M of P + C that
    # Q + C lacks; C is admissible in each of those modes
    cert: Optional[tuple] = None


@dataclass(frozen=True)
class Task:
    pair: Optional[Pair]
    mode: str
    method: str = "auto"
    # CLI tasks only: raw file texts and the expected exit code
    p_text: Optional[str] = None
    q_text: Optional[str] = None
    exit_code: Optional[int] = None

    @property
    def alphabet(self) -> Optional[frozenset]:
        return self.pair.alphabet if self.pair and self.mode.startswith("rel-") else None

    @property
    def expected(self) -> bool:
        return self.mode in self.pair.equivalent_in


# ---------------------------------------------------------------------------
# program families over atoms x<i>, y<i>; the seed permutes the labels


class Labels:
    def __init__(self, k: int, rng: Random):
        self.ids = rng.sample(range(1, k + 1), k)

    def x(self, i: int) -> str:
        return f"x{self.ids[i]}"

    def y(self, i: int) -> str:
        return f"y{self.ids[i]}"


def chain(k: int, lab: Labels) -> tuple[list[Rule], frozenset]:
    """Permissive disjunctive chain ``x_i | y_i.  x_{i+1} :- x_i, not y_{i+1}.``
    (head-cycle free); all-y is an answer set."""
    rules = []
    for i in range(k):
        rules.append(R([lab.x(i), lab.y(i)]))
        if i + 1 < k:
            rules.append(R([lab.x(i + 1)], [lab.x(i)], [lab.y(i + 1)]))
    return rules, frozenset(lab.y(i) for i in range(k))


def loops(k: int, lab: Labels) -> tuple[list[Rule], frozenset]:
    """Normal even loops ``x_i :- not y_i.  y_i :- not x_i.  x_{i+1} :- x_i.``;
    all-y is an answer set."""
    rules = []
    for i in range(k):
        rules.append(R([lab.x(i)], [], [lab.y(i)]))
        rules.append(R([lab.y(i)], [], [lab.x(i)]))
        if i + 1 < k:
            rules.append(R([lab.x(i + 1)], [lab.x(i)]))
    return rules, frozenset(lab.y(i) for i in range(k))


def gadgets(k: int) -> list[int]:
    return [i for i in range(k) if i % 3 == 1]


def cyclic(k: int, lab: Labels) -> tuple[list[Rule], frozenset]:
    """The chain plus ``x_g :- y_g.  y_g :- x_g.`` at every third pair, which
    puts a head cycle through ``x_g | y_g`` (not head-cycle free, k >= 2)."""
    rules, cert = chain(k, lab)
    for g in gadgets(k):
        rules += [R([lab.x(g)], [lab.y(g)]), R([lab.y(g)], [lab.x(g)])]
    return rules, cert | {lab.x(g) for g in gadgets(k)}


def horn(k: int, lab: Labels, rng: Random) -> tuple[list[Rule], frozenset]:
    """Definite Horn program: fact ``x_0``, the chain ``x_{i+1} :- x_i``, and
    random definite rules; the least model is the answer set."""
    names = [lab.x(i) for i in range(k)] + [lab.y(i) for i in range(k)]
    rules = [R([lab.x(0)])]
    rules += [R([lab.x(i + 1)], [lab.x(i)]) for i in range(k - 1)]
    for i in range(k):
        rules.append(R([lab.y(i)], [lab.x(rng.randrange(k))]))
    while len(rules) < 3 * k + 1:
        head = rng.choice(names)
        body = rng.sample([a for a in names if a != head], rng.randint(1, 2))
        rules.append(R([head], body))
    return rules, least_model(rules)


def least_model(rules: list[Rule]) -> frozenset:
    m: set = set()
    changed = True
    while changed:
        changed = False
        for h, p, _ in rules:
            if h and p <= m and not h <= m:
                m |= h
                changed = True
    return frozenset(m)


def random_program(k: int, lab: Labels, rng: Random) -> tuple[list[Rule], frozenset]:
    """Random disjunctive rules with a planted answer set M: every atom of M
    gets a rule ``a :- not b`` with b outside M (so the reduct holds a fact
    for each atom of M), and each random rule is redrawn until M satisfies
    it.  Then M is the least model of its own reduct."""
    names = [lab.x(i) for i in range(k)] + [lab.y(i) for i in range(k)]
    m = frozenset(rng.sample(names, rng.randint(2, len(names) - 1)))
    outside = [a for a in names if a not in m]
    rules = [R([a], [], [rng.choice(outside)]) for a in sorted(m)]
    while len(rules) < len(m) + 2 * k:
        head = rng.sample(names, rng.choice((0, 1, 1, 1, 2, 2)))
        rest = [a for a in names if a not in head]
        body = rng.sample(rest, min(len(rest), rng.randint(1, 3)))
        cut = rng.randint(0, len(body))
        r = R(head, body[:cut], body[cut:])
        if checker.is_model(m, [r]) and r not in rules:
            rules.append(r)
    rng.shuffle(rules)
    return rules, m


FAMILIES = {
    "chain": lambda k, lab, rng: chain(k, lab),
    "loops": lambda k, lab, rng: loops(k, lab),
    "cyclic": lambda k, lab, rng: cyclic(k, lab),
    "horn": horn,
    "random": random_program,
}

# weakenings that keep a program in its class, so that `auto` routes the
# pair as it would route the original: Horn stays Horn, normal stays normal,
# head-cycle free stays head-cycle free (a negative literal adds no
# positive dependency edge)
CLASS_KEEPING = {"chain": "neg", "loops": "pos neg", "cyclic": "pos neg", "horn": "pos", "random": "pos neg head"}


# ---------------------------------------------------------------------------
# pairs


def weakened(p: list[Rule], how: str) -> list[Rule]:
    """Two weakened copies of rules of ``p``, picked by position only.

    The copies come from the middle and the last rule (then the others in
    order, if those admit none), the kinds of weakening take turns from
    ``how``, and the added atom is the first one the rule lacks, in order of
    first occurrence in ``p``.  On the structured families the seed then
    only renames the atoms, so it does not change the work.
    """
    order = list(dict.fromkeys(a for r in p for part in r for a in sorted(part)))
    kinds = how.split()
    out: list[Rule] = []
    for r in [p[len(p) // 2], p[-1]] + p:
        head, pos, neg = r
        kind = kinds[(len(p) + len(out)) % len(kinds)]
        for a in order:
            w = {"pos": (head, pos | {a}, neg), "neg": (head, pos, neg | {a}),
                 "head": (head | {a}, pos, neg)}[kind]
            if a not in head | pos | neg and w not in p and w not in out:
                out.append(w)
                break
        if len(out) == 2:
            return out
    raise ValueError("too few rules to weaken")


def make_pair(family: str, k: int, kind: str, rng: Random, how: Optional[str] = None, at: int = 0) -> Pair:
    """One pair of ``kind`` on ``family`` with 2k atoms.

    On the structured families ``at`` is the index of the pair of atoms
    (x_at, y_at) the change touches, negative counting from the end.  It
    fixes how far a witness search must go, so the seed, which only picks
    the labels there, does not change the work."""
    lab = Labels(k, rng)
    p, m = FAMILIES[family](k, lab, rng)
    names = sorted(checker.atoms(p))
    xs = frozenset(a for a in names if a.startswith("x"))
    ctx: tuple = ()
    if kind == "equal":
        extra = weakened(p, how or CLASS_KEEPING[family])
        return Pair(family, len(names), kind, tuple(p), tuple(p + extra), xs, frozenset(MODES))
    if kind == "dropped":
        gone = _droppable(family, k, lab, at)
        q = [r for r in p if r != gone]
    elif kind == "shifted":
        # shifting x_g | y_g on a head cycle leaves Q without answer sets
        if family != "cyclic":
            raise ValueError("shifted near-misses are built on the cyclic family")
        g = _next(gadgets(k), at % k)
        x, y = lab.x(g), lab.y(g)
        q = [r for r in p if r != R([x, y])] + [R([x], [], [y]), R([y], [], [x])]
    elif kind == "constraint":
        if family in ("chain", "loops", "cyclic"):
            body = [lab.y(at % k), lab.y((at + 1) % k)]
        else:
            body = rng.sample(sorted(m), 2)
        q = p + [R([], body)]
    elif kind == "shifted-hcf":
        # the chain is head-cycle free, so shifting one disjunction keeps
        # ordinary and (relativized) uniform equivalence; the context
        # x_j :- y_j.  y_j :- x_j. separates the strong modes, so y_j joins
        # the alphabet
        if family != "chain":
            raise ValueError("shifted-hcf near-misses are built on the chain family")
        x, y = lab.x(at % k), lab.y(at % k)
        q = [r for r in p if r != R([x, y])] + [R([x], [], [y]), R([y], [], [x])]
        ctx = (R([x], [y]), R([y], [x]))
        m |= {x}
        return Pair(family, len(names), kind, tuple(p), tuple(q), xs | {y},
                    frozenset({"ordinary", "uniform", "rel-uniform"}), (ctx, m))
    else:
        raise ValueError(f"unknown pair kind {kind!r}")
    return Pair(family, len(names), kind, tuple(p), tuple(q), xs, frozenset(), (ctx, m))


def _next(indices: list[int], i: int) -> int:
    """The first of ``indices`` at or after ``i``, wrapping around."""
    return min(indices, key=lambda j: (j < i, j))


def _droppable(family: str, k: int, lab: Labels, at: int) -> Rule:
    # a rule whose removal leaves some atom of the answer set M unsupported
    if family == "horn":
        return R([lab.x(0)])
    if family == "loops":
        return R([lab.y(at % k)], [], [lab.x(at % k)])
    if family in ("chain", "cyclic"):
        kept = gadgets(k) if family == "cyclic" else []
        i = _next([i for i in range(k) if i not in kept], at % k)
        return R([lab.x(i), lab.y(i)])
    raise ValueError(f"no droppable rule for family {family!r}")


def certify(pairs) -> None:
    """Check each certificate of non-equivalence with the definitional test."""
    for pr in pairs:
        if pr.cert is None:
            continue
        ctx, m = pr.cert
        if not checker.is_answer_set(list(pr.p + ctx), m) or checker.is_answer_set(list(pr.q + ctx), m):
            raise RuntimeError(f"bad certificate for a {pr.family}/{pr.kind} pair")


# ---------------------------------------------------------------------------
# workloads; each row makes `count` pairs per kind of `family` with 2k
# atoms and checks every pair in every mode of `modes`


@dataclass(frozen=True)
class Row:
    family: str
    k: int
    kinds: tuple
    count: int = 1
    modes: tuple = ("strong", "uniform")
    at: int = 0


NEAR = ("dropped", "constraint")
EQ = ("equal",)
REL = ("rel-strong", "rel-uniform")

# The mixes are laid out so that the median and the tail decision of a pass
# fall inside runs of decisions of one family and size, whose cost the seed
# does not change; random programs stay small.
SE_EQUAL = [
    Row("random", 4, EQ, 3), Row("chain", 4, EQ, 3), Row("loops", 4, EQ, 2),
    Row("loops", 5, EQ, 8, ("strong",)),  # around the median
    Row("chain", 5, EQ, 5),  # around the tail
    Row("loops", 6, EQ, 1), Row("chain", 6, EQ, modes=("strong",)), Row("loops", 7, EQ, modes=("strong",)),
]

REL_AUTO = [
    # the two slow `auto` routes measured at the seed commit: `hcf` on the
    # chain (rel-uniform) and `normal` on the even loops (rel-strong)
    Row("chain", 6, EQ, modes=("rel-uniform",)),
    Row("loops", 6, EQ, modes=("rel-strong",)),
    Row("loops", 5, EQ, modes=("rel-strong",)),
    # `normal` route, around the tail
    Row("loops", 4, EQ, 6, ("rel-strong",)), Row("loops", 4, NEAR, 3, ("rel-strong",)),
    # `hcf` route, around the median
    Row("chain", 3, EQ + NEAR, 2, ("rel-uniform",)), Row("loops", 3, EQ + NEAR, 2, ("rel-uniform",)),
    # `generic` and `horn` routes
    Row("cyclic", 4, ("equal", "shifted", "constraint"), modes=REL), Row("chain", 4, EQ, modes=("rel-strong",)),
    Row("horn", 4, EQ, modes=REL), Row("horn", 5, NEAR, modes=REL), Row("horn", 3, NEAR, modes=REL),
]

WITNESS = [
    # 6 atoms, below the median
    Row("chain", 3, NEAR, modes=MODES, at=1), Row("random", 3, ("constraint",), 2, MODES),
    # 10 and 12 atoms
    Row("chain", 5, ("dropped",), modes=MODES, at=2),
    Row("chain", 5, ("shifted-hcf",), modes=MODES, at=2),
    Row("chain", 5, ("shifted-hcf",), modes=MODES, at=-1),
    Row("loops", 5, NEAR, modes=MODES, at=2),
    Row("cyclic", 5, ("shifted",), modes=MODES, at=1),
    Row("loops", 6, ("constraint",), modes=MODES, at=3),
    Row("cyclic", 6, ("shifted",), modes=MODES, at=3),
    Row("chain", 6, ("shifted-hcf",), modes=("ordinary", "rel-strong", "rel-uniform"), at=3),
    # around the median and around the tail
    Row("chain", 5, ("shifted-hcf",), 6, ("rel-strong",), at=2),
    Row("chain", 5, ("shifted-hcf",), 4, ("uniform",), at=2),
]

CLI = [
    Row("chain", 2, EQ, 2, MODES), Row("chain", 2, NEAR, 1, MODES),
    Row("chain", 3, ("shifted-hcf",), 1, MODES, at=-1),
    Row("loops", 2, EQ, 1, MODES), Row("loops", 3, NEAR, 1, MODES),
    Row("cyclic", 2, ("shifted",), 1, MODES), Row("cyclic", 3, EQ, 1, MODES),
    Row("horn", 3, EQ, 1, MODES), Row("horn", 4, ("dropped",), 1, MODES),
    Row("random", 2, ("constraint",), 2, MODES), Row("random", 4, EQ, 2, MODES),
]


def _expand(rows, rng: Random, how: Optional[str] = None, method: str = "auto") -> list[Task]:
    tasks = []
    for row in rows:
        for kind in row.kinds:
            for _ in range(row.count):
                pr = make_pair(row.family, row.k, kind, rng, how, row.at)
                tasks += [Task(pr, m, method if m.startswith("rel-") else "auto") for m in row.modes]
    # spread decisions of equal cost over the pass, so that their samples
    # do not all fall into the same stretch of machine speed
    rng.shuffle(tasks)
    return tasks


def build(workload: str, seed: int) -> list[Task]:
    """The workload's task list for ``seed``; each task is one decision."""
    rng = Random(f"{workload}:{seed}")
    if workload == "se-equal":
        # any weakening keeps strong equivalence; strong/uniform do not route
        return _expand(SE_EQUAL, rng, how="pos neg head")
    if workload == "rel-auto":
        return _expand(REL_AUTO, rng)
    if workload == "witness-nearmiss":
        # `generic` keeps the routing of `auto` (measured by rel-auto) out
        # of the witness numbers
        return _expand(WITNESS, rng, method="generic")
    if workload == "cli-small":
        return _cli_tasks(rng)
    raise ValueError(f"unknown workload {workload!r}")


MALFORMED = (
    lambda t: t.rstrip().rstrip("."),          # last statement unterminated
    lambda t: t.replace(":-", ":- ,", 1) if ":-" in t else t + "\n:- ,a.",
    lambda t: t + "\nX1 :- x1.",               # atoms start lower case
    lambda t: t.replace(".", " @.", 1),
)


def _cli_tasks(rng: Random) -> list[Task]:
    tasks = [
        Task(t.pair, t.mode, p_text=checker.render(t.pair.p), q_text=checker.render(t.pair.q),
             exit_code=0 if t.expected else 1)
        for t in _expand(CLI, rng)
    ]
    for bad in MALFORMED:
        pr = make_pair("random", 2, "equal", rng)
        p_text, q_text = checker.render(pr.p), bad(checker.render(pr.q))
        tasks.append(Task(None, rng.choice(MODES), p_text=p_text, q_text=q_text, exit_code=2))
    # 25 atoms: one above the enumeration cap
    lab = Labels(12, rng)
    big, _ = chain(12, lab)
    big.append(R(["w"], [], [lab.y(0)]))
    text = checker.render(big)
    tasks.append(Task(None, rng.choice(MODES), p_text=text, q_text=text, exit_code=3))
    rng.shuffle(tasks)
    return tasks

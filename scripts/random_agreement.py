#!/usr/bin/env python3
"""Cross-check the deciders against definitional oracles on random programs.

For each seeded random pair the script compares:

* decide_uniform / decide_rel_uniform against fact-set enumeration,
* decide_strong against the SE-models by definition and decide_uniform
  against the fact-set signature on near pairs, where Q is P with one rule
  dropped, added or weakened (independent random pairs rarely share rules),
  and where Q is P with one disjunctive rule shifted, which often makes
  them uniformly but not strongly equivalent; on the same near pairs,
  decide_rel_uniform at a random alphabet against fact-set enumeration,
  decide_rel_strong at an alphabet of at most two atoms against the
  unary-context signature, and decide_ordinary against the answer sets,
  with the alphabets drawn from a seed stream of their own,
* on each rel-uniform and ordinary check, the decider's witness (context
  rules, distinguishing set, side) against the oracle's, the first one of
  its literal context scan; the Horn route builds its own, and only its
  verdict is compared,
* decide_rel_strong against the unary-context signature (alphabets of at
  most two atoms),
* the Horn deciders against the generic enumerator on Horn pairs,
* ase_check_normal / aue_check_hcf against ase_models / aue_models on
  every candidate pair of a random normal / head-cycle-free program (the
  pairs that equivalence._pairs_by_check lists),
* check_shift_safe against the SE-models by definition at the full
  alphabet and against the unary-context signature at alphabets of at most
  two atoms, on programs drawn from a seed stream of their own; neither
  runs the row search that check_shift_safe asks.

Example::

    python3 scripts/random_agreement.py --pairs 200 --atoms 4 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from aspeq.equivalence import (
    _pairs_by_check,
    brute_force_oracle,
    decide_horn_bounded,
    decide_horn_rel,
    decide_ordinary,
    decide_rel_strong,
    decide_rel_uniform,
)
from aspeq.harness import GeneratorConfig, _program_se, random_program, uniform_signature, unary_signature
from aspeq.relativized import ase_check_normal, ase_models, aue_check_hcf, aue_models
from aspeq.se import decide_strong, decide_uniform
from aspeq.semantics import submasks
from aspeq.syntax import Program, Rule, Universe
from aspeq.transforms import check_shift_safe, shift_one

ATOM_NAMES = "abcdefgh"


def make_pair(seed: int, atoms: int, max_rules: int, require=()):
    rng = random.Random(seed)
    uni = Universe(ATOM_NAMES[:atoms])
    req = frozenset(require)
    p = random_program(GeneratorConfig(atoms, rng.randint(0, max_rules), seed, req), uni)
    q = random_program(
        GeneratorConfig(atoms, rng.randint(0, max_rules), seed + 900001, req), uni
    )
    return p, q, uni, rng


def near_program(p: Program, q: Program, rng: random.Random, atoms: int) -> Program:
    """P with one rule dropped, one of Q's rules added, or one rule weakened
    by an extra head atom or body literal."""
    rules = sorted(p.rules, key=lambda r: (r.head, r.pos, r.neg))
    change = rng.randrange(3)
    if change == 0 and rules:
        rules.pop(rng.randrange(len(rules)))
    elif change == 1 and q.rules:
        rules.append(rng.choice(sorted(q.rules, key=lambda r: (r.head, r.pos, r.neg))))
    elif rules:
        r, b = rng.choice(rules), 1 << rng.randrange(atoms)
        rules.append(rng.choice([Rule(r.head | b, r.pos, r.neg), Rule(r.head, r.pos | b, r.neg),
                                 Rule(r.head, r.pos, r.neg | b)]))
    return Program(frozenset(rules), p.universe)


def witness_key(v):
    w = v.witness
    return None if w is None else (w.context.rules, w.distinguishing, w.side)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--atoms", type=int, default=4, choices=range(2, 7))
    parser.add_argument("--max-rules", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    checks = disagreements = 0
    start = time.perf_counter()
    for i in range(args.pairs):
        seed = args.seed + i

        p, q, uni, rng = make_pair(seed, args.atoms, args.max_rules)
        over = uni.full_mask
        a = rng.randint(0, over)
        v, oracle = decide_rel_uniform(p, q, a, method="generic"), brute_force_oracle(p, q, a, "uniform")
        uniform = v.equivalent
        checks += 2
        if uniform != oracle.equivalent:
            disagreements += 1
            print(f"uniform disagreement at seed {seed}, alphabet {uni.fmt(a)}")
        if witness_key(v) != witness_key(oracle):
            disagreements += 1
            print(f"uniform witness disagreement at seed {seed}, alphabet {uni.fmt(a)}")
        if a == over:
            checks += 1
            if uniform != decide_uniform(p, q).equivalent:
                disagreements += 1
                print(f"full-alphabet uniform disagreement at seed {seed}")

        near = [near_program(p, q, random.Random(f"near {seed}"), args.atoms)]
        disjunctive = sorted((r for r in p.rules if r.head.bit_count() >= 2), key=lambda r: (r.head, r.pos, r.neg))
        if disjunctive:
            near.append(shift_one(p, random.Random(f"shift {seed}").choice(disjunctive)))
        arng = random.Random(f"near alphabet {seed}")
        for nq in near:
            checks += 7
            if decide_strong(p, nq).equivalent != (_program_se(p, over) == _program_se(nq, over)):
                disagreements += 1
                print(f"near-pair strong disagreement at seed {seed}")
            if decide_uniform(p, nq).equivalent != (uniform_signature(p, over, over) == uniform_signature(nq, over, over)):
                disagreements += 1
                print(f"near-pair uniform disagreement at seed {seed}")
            na, small = arng.randint(0, over), arng.choice([m for m in submasks(over) if m.bit_count() <= 2])
            v, oracle = decide_rel_uniform(p, nq, na), brute_force_oracle(p, nq, na, "uniform")
            if v.equivalent != oracle.equivalent:
                disagreements += 1
                print(f"near-pair rel-uniform disagreement at seed {seed}, alphabet {uni.fmt(na)}")
            if v.method != "horn" and witness_key(v) != witness_key(oracle):
                disagreements += 1
                print(f"near-pair rel-uniform witness disagreement at seed {seed}, alphabet {uni.fmt(na)}")
            if decide_rel_strong(p, nq, small).equivalent != (unary_signature(p, small, over) == unary_signature(nq, small, over)):
                disagreements += 1
                print(f"near-pair rel-strong disagreement at seed {seed}, alphabet {uni.fmt(small)}")
            v, oracle = decide_ordinary(p, nq), brute_force_oracle(p, nq, 0, "ordinary")
            if v.equivalent != oracle.equivalent:
                disagreements += 1
                print(f"near-pair ordinary disagreement at seed {seed}")
            if witness_key(v) != witness_key(oracle):
                disagreements += 1
                print(f"near-pair ordinary witness disagreement at seed {seed}")

        small = rng.choice([m for m in submasks(over) if m.bit_count() <= 2])
        checks += 1
        strong = decide_rel_strong(p, q, small, method="generic").equivalent
        if strong != (unary_signature(p, small, over) == unary_signature(q, small, over)):
            disagreements += 1
            print(f"strong disagreement at seed {seed}, alphabet {uni.fmt(small)}")

        hp, hq, huni, hrng = make_pair(seed, args.atoms, args.max_rules, require=["horn"])
        ha = hrng.randint(0, huni.full_mask)
        want = decide_rel_strong(hp, hq, ha, method="generic").equivalent
        for decider in (decide_horn_rel, decide_horn_bounded):
            checks += 1
            if decider(hp, hq, ha).equivalent != want:
                disagreements += 1
                print(f"{decider.__name__} disagreement at seed {seed}")

        for require, listing, check in (("normal", ase_models, ase_check_normal),
                                        ("hcf", aue_models, aue_check_hcf)):
            mp, _, muni, mrng = make_pair(seed, args.atoms, args.max_rules, require=[require])
            ma, over = mrng.randint(0, muni.full_mask), muni.full_mask
            models = set(listing(mp, ma, over))
            checks += 1
            if set(_pairs_by_check(ma, over, lambda pr: check(mp, pr, over))) != models:
                disagreements += 1
                print(f"{check.__name__} disagreement at seed {seed}, alphabet {muni.fmt(ma)}")

        # a second sample: make_pair draws P from `seed` and Q from seed + 900001
        sp, _, suni, srng = make_pair(seed + 1800002, args.atoms, args.max_rules)
        sover = suni.full_mask
        small = srng.choice([m for m in submasks(sover) if m.bit_count() <= 2])
        for r in sp.rules:
            if r.head.bit_count() < 2:
                continue
            shifted = shift_one(sp, r)
            checks += 2
            if check_shift_safe(sp, r, sover) != (_program_se(sp, sover) == _program_se(shifted, sover)):
                disagreements += 1
                print(f"full-alphabet shift-safety disagreement at seed {seed}")
            if check_shift_safe(sp, r, small) != (unary_signature(sp, small, sover) == unary_signature(shifted, small, sover)):
                disagreements += 1
                print(f"shift-safety disagreement at seed {seed}, alphabet {suni.fmt(small)}")

    elapsed = time.perf_counter() - start
    print(f"{checks} checks over {args.pairs} seeds in {elapsed:.1f}s, "
          f"{disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Digest the verdicts, witnesses and model listings of the exhaustive families.

Every result becomes one canonical JSON line, and each section's digest is
the sha256 over its lines.  The digests are stored in ``identity.json``
next to this script; a run compares against them and exits 1 when any
section differs.  A change that alters a witness or a listing on purpose
re-records them with ``--write`` and says so.

Sections of the ``full`` scope:

* ``decide-2``: every ordered pair of the 2-atom, at most 2-rule
  ``family_programs`` family in all five modes, the ``rel-`` modes at the
  alphabet {a} (default method);
* ``rel-3``: every ordered pair of the 3-atom, at most 1-rule family under
  every alphabet, in both ``rel-`` modes with methods ``auto`` and
  ``generic``;
* ``listings``: ``se_models`` and ``ue_models`` of every program of both
  families, and ``ase_models`` and ``aue_models`` under every alphabet;
* ``strong-witness``: ``build_strong_witness(p, q, {a})`` for every
  ``decide-2`` pair that is not ``rel-strong`` equivalent at {a}.

The ``strided`` scope is ``decide-2`` and ``rel-3`` at every 23rd ordered
pair.
A decision line holds the call, the verdict, its mode, alphabet and
``Verdict.method``, and the witness as rendered context, distinguishing
set and side.

Examples::

    PYTHONPATH=src python3 scripts/identity.py --scope strided
    PYTHONPATH=src python3 scripts/identity.py --dump lines.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from itertools import islice, product
from pathlib import Path

from aspeq.equivalence import MODES, build_strong_witness, decide
from aspeq.harness import _setup
from aspeq.relativized import ase_models, aue_models
from aspeq.se import se_models, ue_models
from aspeq.semantics import submasks
from aspeq.syntax import render

STORE = Path(__file__).with_name("identity.json")
STRIDE = 23


class Section:
    def __init__(self, name: str, dump):
        self.name, self.dump = name, dump
        self.sha = hashlib.sha256()
        self.lines = 0

    def add(self, record) -> None:
        line = json.dumps(record, separators=(",", ":"), ensure_ascii=False)
        self.sha.update(line.encode() + b"\n")
        self.lines += 1
        if self.dump is not None:
            self.dump.write(f"{self.name}\t{line}\n")


def _witness(w, uni):
    return None if w is None else [render(w.context), uni.fmt(w.distinguishing), w.side]


def _verdict(v, uni):
    return [v.equivalent, v.mode, uni.fmt(v.alphabet), v.method, _witness(v.witness, uni)]


def decide_2(out: Section, tally: Counter, stride: int, witnesses=None) -> None:
    uni, _, progs = _setup(2, 2)
    text = [render(p) for p in progs]
    a = uni.mask_of(["a"])
    for (i, p), (j, q) in islice(product(enumerate(progs), repeat=2), 0, None, stride):
        for mode in MODES:
            alphabet = a if mode.startswith("rel-") else None
            v = decide(p, q, mode, alphabet)
            tally[mode, v.equivalent] += 1
            out.add([text[i], text[j], mode, None if alphabet is None else uni.fmt(alphabet), _verdict(v, uni)])
            if witnesses is not None and mode == "rel-strong" and not v.equivalent:
                witnesses.add([text[i], text[j], uni.fmt(a), _witness(build_strong_witness(p, q, a), uni)])


def rel_3(out: Section, tally: Counter, stride: int) -> None:
    uni, over, progs = _setup(3, 1)
    text = [render(p) for p in progs]
    for (i, p), (j, q) in islice(product(enumerate(progs), repeat=2), 0, None, stride):
        for a in submasks(over):
            for mode in ("rel-strong", "rel-uniform"):
                for method in ("auto", "generic"):
                    v = decide(p, q, mode, a, method)
                    tally[f"{mode}/{method}", v.equivalent] += 1
                    out.add([text[i], text[j], mode, uni.fmt(a), method, _verdict(v, uni)])


def listings(out: Section) -> None:
    for atoms, max_rules in ((2, 2), (3, 1)):
        uni, over, progs = _setup(atoms, max_rules)
        for p in progs:
            text = render(p)
            for kind, listing in (("se", se_models), ("ue", ue_models)):
                out.add([text, kind, uni.fmt(over), [uni.fmt_pair(x, y) for x, y in listing(p, over)]])
            for a in submasks(over):
                for kind, listing in (("ase", ase_models), ("aue", aue_models)):
                    pairs = [uni.fmt_pair(pr.x, pr.y) for pr in listing(p, a, over)]
                    out.add([text, kind, uni.fmt(a), pairs])


def run(scope: str, dump) -> tuple[dict, Counter]:
    tally: Counter = Counter()
    sections = {}
    if scope == "strided":
        for name in ("decide-2", "rel-3"):
            sections[name] = Section(name, dump)
        decide_2(sections["decide-2"], tally, STRIDE)
        rel_3(sections["rel-3"], tally, STRIDE)
    else:
        for name in ("decide-2", "strong-witness", "rel-3", "listings"):
            sections[name] = Section(name, dump)
        decide_2(sections["decide-2"], tally, 1, sections["strong-witness"])
        rel_3(sections["rel-3"], tally, 1)
        listings(sections["listings"])
    return {n: {"lines": s.lines, "sha256": s.sha.hexdigest()} for n, s in sections.items()}, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scope", choices=("full", "strided"), default="full")
    ap.add_argument("--write", action="store_true", help="record these digests as the expected ones")
    ap.add_argument("--dump", metavar="PATH", help="also write every canonical line, tagged with its section")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    dump = open(args.dump, "w", encoding="utf-8") if args.dump else None
    try:
        got, tally = run(args.scope, dump)
    finally:
        if dump is not None:
            dump.close()
    elapsed = time.perf_counter() - start
    stored = json.loads(STORE.read_text(encoding="utf-8")) if STORE.exists() else {}
    want = stored.get(args.scope, {})
    for (kind, equivalent), n in sorted(tally.items()):
        print(f"# {kind}: {n} {'equivalent' if equivalent else 'not equivalent'}")
    bad = 0
    for name, d in got.items():
        expected = want.get(name)
        status = "recorded" if args.write else "ok" if d == expected else "MISMATCH"
        bad += status == "MISMATCH"
        print(f"{name}: {d['lines']} lines sha256 {d['sha256']} {status}")
        if status == "MISMATCH" and expected is not None:
            print(f"  expected {expected['lines']} lines sha256 {expected['sha256']}")
    print(f"# {args.scope} scope, {sum(d['lines'] for d in got.values())} lines in {elapsed:.1f} s")
    if args.write:
        stored[args.scope] = got
        STORE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

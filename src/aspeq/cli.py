"""Command-line interface.

Subcommands::

    aspeq check P.lp Q.lp --mode MODE [--alphabet a,b | --alphabet-all-but w]
    aspeq models P.lp --kind KIND [--alphabet ...]
    aspeq shift P.lp [--rule N] [--check-alphabet ...]
    aspeq sweep [--property NAME] [--atoms N] [--max-rules K]

Exit codes: 0 equivalent / all models listed / property holds, 1 not
equivalent or property violated, 2 usage or parse error, 3 capacity
exceeded.  ``--format json`` emits a machine-readable report with a
versioned ``schema`` field (now 1) describing the same verdict as the text
output; ``_report`` prints every report in either format.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .equivalence import MODES, Verdict, decide
from .harness import PROPERTIES, exhaustive_sweep
from .relativized import ase_models, aue_models
from .se import se_models, ue_models
from .semantics import CapacityError, answer_sets, classical_models
from .syntax import ParseError, Program, Universe, canonical_rules, parse_program, render
from .transforms import check_shift_safe, shift_one, shift_program

MODEL_KINDS = ("as", "classical", "se", "ue", "ase", "aue")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity exceeded: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # OSError: an input file that cannot be read
        print(f"error: {e}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspeq",
        description="Decide equivalence of propositional disjunctive logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide equivalence of two programs")
    check.add_argument("p", help="first program file")
    check.add_argument("q", help="second program file")
    check.add_argument("--mode", choices=MODES, default="strong")
    _add_alphabet_args(check)
    _add_format_arg(check)
    check.set_defaults(func=cmd_check)

    models = sub.add_parser("models", help="enumerate models of a program")
    models.add_argument("p", help="program file")
    models.add_argument("--kind", choices=MODEL_KINDS, default="as")
    _add_alphabet_args(models)
    _add_format_arg(models)
    models.set_defaults(func=cmd_models)

    shift = sub.add_parser("shift", help="shift disjunctive heads")
    shift.add_argument("p", help="program file")
    shift.add_argument("--rule", type=int, default=None, metavar="N",
                       help="shift only rule N (1-based, canonical order)")
    shift.add_argument("--check-alphabet", default=None, metavar="a,b",
                       help="also report whether the shift preserves strong "
                            "equivalence relative to this alphabet")
    _add_format_arg(shift)
    shift.set_defaults(func=cmd_shift)

    sweep = sub.add_parser("sweep", help="exhaustive property sweep")
    sweep.add_argument("--property", default=None, choices=sorted(PROPERTIES),
                       help="the property to check (default: every property, in order)")
    sweep.add_argument("--atoms", type=int, default=2, choices=(1, 2, 3))
    sweep.add_argument("--max-rules", type=int, default=None)
    _add_format_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _add_alphabet_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--alphabet", default=None, metavar="a,b",
                     help="comma-separated alphabet atoms (default: all atoms)")
    grp.add_argument("--alphabet-all-but", default=None, metavar="w",
                     help="alphabet = all atoms except these")


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _load(path: str, universe: Universe) -> Program:
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read(), universe)


def _alphabet(args, universe: Universe, default: int) -> int:
    if args.alphabet is not None:
        return universe.mask_of(_split_atoms(args.alphabet))
    if args.alphabet_all_but is not None:
        return universe.full_mask & ~universe.mask_of(_split_atoms(args.alphabet_all_but))
    return default


def _split_atoms(spec: str) -> list[str]:
    names = [n.strip() for n in spec.split(",") if n.strip()]
    if not names:
        raise ValueError(f"empty alphabet spec {spec!r}")
    return names


def _report(args, doc, lines) -> None:
    """Print one report: the document ``doc()`` as one JSON line under
    ``--format json``, else each of ``lines`` on a line of its own."""
    if args.format == "json":
        print(json.dumps({"schema": 1, **doc()}))
    else:
        for line in lines:
            print(line)


def cmd_check(args) -> int:
    uni = Universe()
    p = _load(args.p, uni)
    q = _load(args.q, uni)
    a = _alphabet(args, uni, default=uni.full_mask)
    verdict = decide(p, q, args.mode, a)
    _report(args, lambda: _verdict_json(verdict, uni), _verdict_text(verdict, uni, args.p, args.q))
    return 0 if verdict.equivalent else 1


def _verdict_text(v: Verdict, uni: Universe, pname: str, qname: str) -> list[str]:
    rel = v.mode.startswith("rel-")
    scope = f" relative to {uni.fmt(v.alphabet)}" if rel else ""
    if v.equivalent:
        return [f"equivalent ({v.mode}{scope})"]
    w = v.witness
    ctx = render(w.context)
    keeper = pname if w.side == "left" else qname
    return [f"not equivalent ({v.mode}{scope})", "context:",
            *(f"  {line}" for line in (ctx.splitlines() if ctx else ["(empty)"])),
            f"distinguishing: {uni.fmt(w.distinguishing)}",
            f"answer set of {keeper} plus the context only"]


def _verdict_json(v: Verdict, uni: Universe) -> dict:
    out = {
        "mode": v.mode,
        "alphabet": list(uni.decode(v.alphabet)),
        "equivalent": v.equivalent,
        "method": v.method,
        "witness": None,
    }
    if v.witness is not None:
        w = v.witness
        out["witness"] = {
            "context": render(w.context).splitlines(),
            "distinguishing": list(uni.decode(w.distinguishing)),
            "side": w.side,
        }
    return out


def cmd_models(args) -> int:
    uni = Universe()
    p = _load(args.p, uni)
    a = _alphabet(args, uni, default=uni.full_mask)
    relative = args.kind in ("ase", "aue")
    if args.kind == "as":
        models = sorted(answer_sets(p))
    elif args.kind == "classical":
        models = classical_models(p, p.var)
    elif not relative:
        models = (se_models if args.kind == "se" else ue_models)(p, p.var)
    else:
        pairs = (ase_models if args.kind == "ase" else aue_models)(p, a, p.var | a)
        models = [(pr.x, pr.y) for pr in pairs]
    _report(args, lambda: {
        "kind": args.kind,
        "alphabet": list(uni.decode(a)) if relative else None,
        "models": [[list(uni.decode(i)) for i in m] if isinstance(m, tuple) else list(uni.decode(m))
                   for m in models],
    }, (uni.fmt_pair(*m) if isinstance(m, tuple) else uni.fmt(m) for m in models))
    return 0


def cmd_shift(args) -> int:
    uni = Universe()
    p = _load(args.p, uni)
    rules = canonical_rules(p)
    if args.rule is None:
        shifted = shift_program(p)
    elif 1 <= args.rule <= len(rules):
        rules = [rules[args.rule - 1]]
        shifted = shift_one(p, rules[0])
    else:
        raise ValueError(f"rule index {args.rule} out of range 1..{len(rules)}")
    safe = None
    if args.check_alphabet is not None:
        a = uni.mask_of(_split_atoms(args.check_alphabet))
        safe = all(check_shift_safe(p, r, a) for r in rules if r.head.bit_count() >= 2)
    program = render(shifted).splitlines()
    _report(args, lambda: {"program": program, "safe": safe},
            program + ([] if safe is None else ["safe" if safe else "unsafe"]))
    return 0


def cmd_sweep(args) -> int:
    failed = False
    for prop in [args.property] if args.property else sorted(PROPERTIES):
        report = exhaustive_sweep(args.atoms, prop, args.max_rules)
        found = sorted(report.counterexamples)
        _report(args, lambda: {"property": report.prop, "checked": report.checked, "counterexamples": found},
                [f"{report.prop}: checked {report.checked}, {len(found)} counterexamples",
                 *(f"  {c}" for c in found)])
        failed |= not report.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

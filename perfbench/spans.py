"""Span recording around aspeq's layer functions, for the traced run.

``Tracer.install`` replaces each listed function by a wrapper under every
name the aspeq modules bind it to (``from .semantics import answer_sets``
makes a second binding in ``aspeq.equivalence``), so calls between layers
are recorded too.  Per-interpretation helpers (``is_model``, ``satisfies``,
``reduct``, ``submasks``) are left alone: a wrapper would cost more than
the call.  Spans live in flat arrays; ``write`` saves them as one JSON file.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# layer -> functions wrapped in that layer's module
LAYERS = {
    "syntax": ("parse_program",),
    "semantics": ("answer_sets", "classical_models", "minimal_models",
                  "horn_least_model", "horn_satisfiable", "horn_entails"),
    "se": ("se_models", "ue_models", "decide_strong", "decide_uniform"),
    "relativized": ("ase_models", "aue_models", "a_minimal_models",
                    "ase_check_normal", "aue_check_hcf"),
    "transforms": ("is_hcf", "is_a_hcf", "shift_program", "shift_one", "check_shift_safe"),
    "equivalence": ("decide_ordinary", "decide_rel_strong", "decide_rel_uniform",
                    "decide_horn_rel", "build_strong_witness", "build_uniform_witness",
                    "_pairs_by_check", "_check_witness"),
    "cli": ("main",),
}

# groups of span names whose outermost spans give the per-layer times
GROUPS = {
    "se_enum": ("se.se_models", "se.ue_models"),
    "rel_enum": ("relativized.ase_models", "relativized.aue_models"),
    "member": ("relativized.ase_check_normal", "relativized.aue_check_hcf"),
    "transforms": tuple(f"transforms.{f}" for f in LAYERS["transforms"]),
    "horn": ("semantics.horn_least_model", "semantics.horn_satisfiable", "semantics.horn_entails"),
    "answer_sets": ("semantics.answer_sets",),
    # witness search plus re-verification
    "witness": ("equivalence.build_strong_witness", "equivalence.build_uniform_witness",
                "equivalence._check_witness"),
    "parse": ("syntax.parse_program",),
    "cli": ("cli.main",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits = array("b")  # 1 when a membership check returned True
        self.sizes = array("q")  # len() of an enumeration's result, else -1
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import aspeq.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "aspeq" or n.startswith("aspeq.")]
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"aspeq.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = self._wrap(f"{layer}.{fn}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        ix = self.name_id.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.hits.append(0)
            self.sizes.append(-1)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if result is True:
                self.hits[span] = 1
            elif isinstance(result, list):
                self.sizes[span] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ---------------------------------------------------------

    def analyze(self, groups: dict[str, tuple]) -> tuple[dict, dict]:
        """One pass over the spans.

        Returns per-name totals (calls, inclusive and self seconds, result
        items) and per-group totals over the group's outermost spans, those
        with no ancestor in the same group, so nested calls count once.  A
        group's ``under`` counts the spans of any name that run inside it.
        """
        bit_of = {g: 1 << i for i, g in enumerate(groups)}
        name_bits = [0] * len(self.names)
        for g, members in groups.items():
            for n in members:
                if n in self.name_id:
                    name_bits[self.name_id[n]] |= bit_of[g]
        n = len(self.start)
        cover = [0] * n  # groups of the span and of its ancestors
        child = [0.0] * n
        per_name = [{"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0} for _ in self.names]
        per_group = {g: {"calls": 0, "secs": 0.0, "hits": 0, "under": {}} for g in groups}
        names, name_ix, parent, start, end = self.names, self.name_ix, self.parent, self.start, self.end
        durs = [0.0] * n
        for i in range(n):
            k = name_ix[i]
            p = parent[i]
            d = end[i] - start[i]
            durs[i] = d
            above = cover[p] if p >= 0 else 0
            cover[i] = above | name_bits[k]
            if p >= 0:
                child[p] += d
            rec = per_name[k]
            rec["calls"] += 1
            rec["total_s"] += d
            rec["items"] += max(self.sizes[i], 0)
            fresh = name_bits[k] & ~above
            if fresh:
                for g, b in bit_of.items():
                    if fresh & b:
                        acc = per_group[g]
                        acc["calls"] += 1
                        acc["secs"] += d
                        acc["hits"] += self.hits[i]
            if above:
                for g, b in bit_of.items():
                    if above & b:
                        under = per_group[g]["under"]
                        under[names[k]] = under.get(names[k], 0) + 1
        for i in range(n):
            per_name[name_ix[i]]["self_s"] += durs[i] - child[i]
        return {names[k]: rec for k, rec in enumerate(per_name) if rec["calls"]}, per_group

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans to ``path``: the span names, and per span the
        index of its name, its parent span (-1 for a root), its start and
        its end, in ``time.perf_counter`` seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "name": self.name_ix.tolist(),
                                    "parent": self.parent.tolist(), "start": self.start.tolist(),
                                    "end": self.end.tolist()}))


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict]:
    """The per-layer metrics of one traced pass, and the per-name totals."""
    per_name, g = tracer.analyze(GROUPS)

    def calls(name: str) -> int:
        return per_name.get(name, {}).get("calls", 0)

    def items(name: str) -> int:
        return per_name.get(name, {}).get("items", 0)

    member, witnesses = g["member"], calls("equivalence._check_witness")
    under_witness = g["witness"]["under"].get("semantics.answer_sets", 0)
    equivalence_self = sum((r["self_s"] for n, r in per_name.items() if n.startswith("equivalence.")), 0.0)
    metrics = {
        "se.enum_s": (g["se_enum"]["secs"], "s"),
        "se.enum_calls": (calls("se.se_models"), "count"),
        "se.pairs": (items("se.se_models"), "count"),
        "relativized.enum_s": (g["rel_enum"]["secs"], "s"),
        "relativized.pairs": (items("relativized.ase_models"), "count"),
        "relativized.member_calls": (member["calls"], "count"),
        "relativized.member_s": (member["secs"], "s"),
        "relativized.member_hit_ratio": (member["hits"] / member["calls"] if member["calls"] else 0.0, "ratio"),
        "transforms.s": (g["transforms"]["secs"], "s"),
        "transforms.shift_calls": (calls("transforms.shift_program") + calls("transforms.shift_one"), "count"),
        "semantics.horn_calls": (calls("semantics.horn_least_model"), "count"),
        "semantics.horn_s": (g["horn"]["secs"], "s"),
        "semantics.answer_sets_calls": (calls("semantics.answer_sets"), "count"),
        "semantics.answer_sets_s": (g["answer_sets"]["secs"], "s"),
        "equivalence.self_s": (equivalence_self, "s"),
        "equivalence.witness_s": (g["witness"]["secs"], "s"),
        "equivalence.witnesses": (witnesses, "count"),
        "equivalence.answer_sets_per_witness": (under_witness / witnesses if witnesses else 0.0, "ratio"),
        "syntax.parse_s": (g["parse"]["secs"], "s"),
        "syntax.parse_calls": (calls("syntax.parse_program"), "count"),
        "cli.main_s": (g["cli"]["secs"], "s"),
    }
    return metrics, per_name

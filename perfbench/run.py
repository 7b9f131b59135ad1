"""Seeded, closed-loop benchmark of aspeq.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--record DIR]

Run from anywhere inside a source checkout: aspeq is imported from the
checkout's ``src`` directory, and CLI tasks run ``python -m aspeq.cli``
against it.  One client sends one decision at a time; the next starts when
the previous returns.  Every verdict is checked (see ``checker.py``), and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  The run decides one pass
over the workload's task list, then repeats passes over its light tasks for
about ``--seconds`` seconds in all.  Every time it reports is scaled to a
reference machine speed (see ``speed.py``).

``--trace 1`` runs a warm-up pass and then pairs of one untraced and one
traced pass, alternating which goes first, for about ``--seconds`` seconds
and at least two pairs.  It prints a per-layer self-time table, writes the
last traced pass's spans under ``.perfbench/`` and reports the per-layer
metrics, each time the median over the traced passes;
``trace.overhead_s`` is the median over the pairs of the traced pass's
total decision time minus the untraced pass's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("se-equal", "rel-auto", "witness-nearmiss", "cli-small")
SETUP_SAMPLES = 12  # even, so that each CPU takes as many as the other on two
IMPORT_SAMPLES = 8
TAIL_BEYOND = 10  # decisions beyond the tail percentile
LIGHT_SHARE = 0.05  # a decision under this share of a pass is repeated alone
DEADLINE_S = 150  # stop starting passes after this long
TRACE_PAIRS = (2, 9)  # least and most untraced/traced pass pairs in a traced run
CLI_TIMEOUT_S = 60

# import aspeq and parse every program in a fresh interpreter, which prints
# when it started and ended (time.perf_counter is system-wide, so the parent
# can scale the interval); the program texts arrive on stdin before the start
SETUP_CODE = """
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
import aspeq
from aspeq.syntax import ParseError, Universe, parse_program
for pair in texts:
    uni = Universe()
    for text in pair:
        try:
            parse_program(text, uni)
        except ParseError:
            pass
print(t0, time.perf_counter())
"""


# The CPUs of a shared machine can run at different speeds for minutes (a
# busy neighbour on one core), and a single-threaded process tends to stay
# on one CPU for a whole run.  Taking successive samples on the CPUs in turn
# makes every run see all of them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def on_cpu(n: int) -> None:
    """Move this process, and the processes it starts next, to the n-th CPU
    (cyclically)."""
    if len(CPUS) > 1:
        try:
            os.sched_setaffinity(0, {CPUS[n % len(CPUS)]})
        except OSError:  # not allowed here: stay where the scheduler puts us
            pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str], stdin: str = "", probe: speed.SpeedProbe | None = None
               ) -> subprocess.CompletedProcess:
    with probe.paused() if probe is not None else contextlib.nullcontext():
        return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)


def setup_seconds(tasks, probe: speed.SpeedProbe) -> float:
    """Median over fresh interpreters of: import aspeq, parse all programs,
    in seconds at the probe's reference speed."""
    texts = [[t.p_text, t.q_text] for t in tasks if t.p_text is not None]
    pairs = {t.pair for t in tasks if t.pair is not None and t.p_text is None}
    texts += [[checker.render(pr.p), checker.render(pr.q)] for pr in pairs]
    samples = []
    for n in range(SETUP_SAMPLES):
        on_cpu(n)
        out = run_python(["-c", SETUP_CODE], json.dumps(texts), probe)
        if out.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {out.stderr.strip()}")
        t0, t1 = map(float, out.stdout.split())
        samples.append(probe.scale(t0, t1))
    return statistics.median(samples)


def import_seconds() -> float:
    """Median cost of ``import aspeq.cli`` over a bare interpreter start."""
    diffs = []
    for n in range(IMPORT_SAMPLES):
        on_cpu(n)
        t0 = time.perf_counter()
        run_python(["-c", "pass"])
        t1 = time.perf_counter()
        run_python(["-c", "import aspeq.cli"]).check_returncode()
        diffs.append((time.perf_counter() - t1) - (t1 - t0))
    return statistics.median(diffs)


# ---------------------------------------------------------------------------
# library tasks


class LibraryRunner:
    """Decides each task in-process through aspeq's public deciders."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.prepared: list = []
        self.verified: dict = {}
        self.probe: speed.SpeedProbe | None = None  # set while a timed run measures

    def prepare(self) -> None:
        from aspeq.syntax import Universe, parse_program

        self.prepared = []
        parsed = {}
        for t in self.tasks:
            if t.pair not in parsed:
                uni = Universe()
                p = parse_program(checker.render(t.pair.p), uni)
                q = parse_program(checker.render(t.pair.q), uni)
                parsed[t.pair] = (p, q, uni)
            p, q, uni = parsed[t.pair]
            a = uni.mask_of(sorted(t.alphabet)) if t.alphabet is not None else None
            self.prepared.append((p, q, a, uni))

    def decide(self, i: int):
        import aspeq

        t = self.tasks[i]
        p, q, a, _ = self.prepared[i]
        if t.mode == "ordinary":
            return aspeq.decide_ordinary(p, q)
        if t.mode == "strong":
            return aspeq.decide_strong(p, q)
        if t.mode == "uniform":
            return aspeq.decide_uniform(p, q)
        if t.mode == "rel-strong":
            return aspeq.decide_rel_strong(p, q, a, method=t.method)
        return aspeq.decide_rel_uniform(p, q, a, method=t.method)

    def check(self, i: int, verdict) -> str | None:
        t = self.tasks[i]
        uni = self.prepared[i][3]
        if verdict.mode != t.mode:
            return f"verdict for mode {verdict.mode}, asked {t.mode}"
        if verdict.equivalent != t.expected:
            return f"verdict equivalent={verdict.equivalent}, expected {t.expected}"
        if verdict.equivalent:
            return None
        w = verdict.witness
        ctx = frozenset(
            (frozenset(uni.decode(r.head)), frozenset(uni.decode(r.pos)), frozenset(uni.decode(r.neg)))
            for r in w.context.rules)
        return self._verify(i, ctx, frozenset(uni.decode(w.distinguishing)), w.side)

    def _verify(self, i, ctx, m, side) -> str | None:
        key = (i, ctx, m, side)
        if key not in self.verified:
            t = self.tasks[i]
            self.verified[key] = checker.verify_witness(
                list(t.pair.p), list(t.pair.q), t.mode, t.alphabet, list(ctx), m, side)
        return self.verified[key]

    def run(self, i: int) -> tuple[float, float, str | None]:
        """Decide task i; return the decision's start and end time and what
        was wrong with its result, if anything."""
        t0 = time.perf_counter()
        try:
            verdict = self.decide(i)
        except Exception as e:  # a raising decision is a failed one
            return t0, time.perf_counter(), f"raised {type(e).__name__}: {e}"
        t1 = time.perf_counter()
        return t0, t1, self.check(i, verdict)


# ---------------------------------------------------------------------------
# CLI tasks


class CliRunner(LibraryRunner):
    """Runs ``aspeq check --format json`` per task, as a process or, in the
    traced run, in-process through ``aspeq.cli.main``."""

    def __init__(self, tasks, workdir: Path, in_process: bool = False):
        super().__init__(tasks)
        self.in_process = in_process
        self.argv = []
        workdir.mkdir(parents=True, exist_ok=True)
        for i, t in enumerate(tasks):
            pf, qf = workdir / f"t{i}-p.lp", workdir / f"t{i}-q.lp"
            pf.write_text(t.p_text)
            qf.write_text(t.q_text)
            argv = ["check", str(pf), str(qf), "--mode", t.mode, "--format", "json"]
            if t.alphabet:
                argv += ["--alphabet", ",".join(sorted(t.alphabet))]
            self.argv.append(argv)

    def prepare(self) -> None:
        pass

    def run(self, i: int) -> tuple[float, float, str | None]:
        if self.in_process:
            import aspeq.cli

            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = aspeq.cli.main(self.argv[i])
                except Exception as e:
                    return t0, time.perf_counter(), f"raised {type(e).__name__}: {e}"
            t1 = time.perf_counter()
            stdout = out.getvalue()
        else:
            t0 = time.perf_counter()
            try:
                proc = run_python(["-m", "aspeq.cli", *self.argv[i]], probe=self.probe)
            except subprocess.TimeoutExpired:
                return t0, time.perf_counter(), "timed out"
            t1 = time.perf_counter()
            code, stdout = proc.returncode, proc.stdout
        return t0, t1, self.check_output(i, code, stdout)

    def check_output(self, i: int, code: int, stdout: str) -> str | None:
        t = self.tasks[i]
        if code != t.exit_code:
            return f"exit code {code}, expected {t.exit_code}"
        if code not in (0, 1):
            return None
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        if report.get("schema") != 1 or report.get("mode") != t.mode:
            return "report has the wrong schema or mode"
        if report.get("equivalent") is not (code == 0):
            return "report disagrees with the exit code"
        if code == 0:
            return None if report.get("witness") is None else "witness on an equivalent verdict"
        w = report.get("witness") or {}
        try:
            ctx = frozenset(checker.parse_rule(r) for r in w["context"])
            m = frozenset(w["distinguishing"])
            side = w["side"]
        except (KeyError, TypeError, ValueError) as e:
            return f"malformed witness: {e}"
        return self._verify(i, ctx, m, side)


# ---------------------------------------------------------------------------
# passes and metrics


class Tally:
    def __init__(self, k: int):
        self.samples: list[list[tuple[float, float]]] = [[] for _ in range(k)]  # per task: (start, end)
        self.failures: list[str] = []
        self.passes = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples))

    def one_pass(self, runner, only=None) -> float:
        total = 0.0
        for i in range(len(runner.tasks)) if only is None else only:
            on_cpu(i + self.passes)  # a task changes CPU from pass to pass
            t0, t1, problem = runner.run(i)
            self.samples[i].append((t0, t1))
            total += t1 - t0
            if problem:
                t = runner.tasks[i]
                what = f"{t.pair.family}/{t.pair.kind}, {t.pair.atoms} atoms" if t.pair else "cli file"
                self.failures.append(f"task {i} ({what}, {t.mode}): {problem}")
        self.passes += 1
        return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def wall_s(samples) -> float:
    return sum(t1 - t0 for t0, t1 in samples)


def summary(per_task: list[float]) -> tuple[float, float, float]:
    """Median, tail (the highest percentile with TAIL_BEYOND decisions
    beyond it, by nearest rank) and decisions per second of a workload
    whose decisions take per_task seconds each."""
    v = sorted(per_task)
    return statistics.median(v), v[len(v) - TAIL_BEYOND - 1], len(v) / sum(v)


def timed_run(args, tasks, runner) -> dict:
    k = len(tasks)
    tally = Tally(k)
    with speed.SpeedProbe() as probe:
        setup_s = setup_seconds(tasks, probe)
        runner.prepare()
        runner.probe = probe
        began = time.perf_counter()
        # one pass over every decision, then passes over the light ones
        # until the time is up: where a few long decisions take most of a
        # pass, the others, which set the median and the tail, still take
        # many samples.  A long decision needs fewer, because the probe
        # tracks the machine's speed all through it.
        full = tally.one_pass(runner)
        light = [i for i, ts in enumerate(tally.samples) if wall_s(ts) < LIGHT_SHARE * full]
        light_s = sum(wall_s(tally.samples[i]) for i in light)
        while light and time.perf_counter() - began + light_s / 2 < min(args.seconds, DEADLINE_S):
            tally.one_pass(runner, only=light)
        measured = time.perf_counter() - began
        runner.probe = None
    # a decision's time is the median of its samples, each scaled to the
    # probe's reference speed
    p50, tail, per_s = summary([statistics.median(probe.scale(*s) for s in ts) for ts in tally.samples])
    w50, wtail, wper_s = summary([statistics.median(t1 - t0 for t0, t1 in s) for s in tally.samples])
    print(f"# {args.workload} seed={args.seed}: 1 pass over {k} decisions, {tally.passes - 1} over the "
          f"{len(light)} lighter ones ({tally.attempted} samples), tail = p{100 * (1 - TAIL_BEYOND / k):.1f}, "
          f"wall {measured:.2f} s")
    print(f"# unscaled wall times: p50 {w50:.4f} s, tail {wtail:.4f} s, {wper_s:.3f} decisions/s; "
          f"probe median {1e6 * statistics.median(probe.took):.0f} us, reference {1e6 * speed.REFERENCE_S:.0f} us")
    metrics = {
        "decide_s.p50": (p50, "s"),
        "decide_s.tail": (tail, "s"),
        "decisions_per_s": (per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result(tally, metrics)


def traced_pass(tally, runner):
    tracer = spans.Tracer()
    tracer.install()
    try:
        runner.prepare()  # parse again, now traced
        total = tally.one_pass(runner)
    finally:
        tracer.uninstall()
    return total, tracer


def traced_run(args, tasks, runner) -> dict:
    runner.prepare()
    tally = Tally(len(tasks))
    began = time.perf_counter()
    tally.one_pass(runner)  # warm-up
    # pairs of one untraced and one traced pass, the order alternating
    untraced, traced, layers = [], [], []
    while len(traced) < TRACE_PAIRS[0] or (len(traced) < TRACE_PAIRS[1]
                                          and time.perf_counter() - began < args.seconds):
        plain_first = len(traced) % 2 == 0
        if plain_first:
            untraced.append(tally.one_pass(runner))
        total, tracer = traced_pass(tally, runner)
        traced.append(total)
        layers.append(spans.layer_metrics(tracer))
        if not plain_first:
            untraced.append(tally.one_pass(runner))
    # counts repeat exactly, so they come from the last traced pass; a time
    # is its median over the traced passes
    metrics = {name: (statistics.median(m[name][0] for m, _ in layers) if unit == "s" else value, unit)
               for name, (value, unit) in layers[-1][0].items()}
    diffs = [t - u for t, u in zip(traced, untraced)]
    overhead = statistics.median(diffs)
    metrics["cli.import_s"] = (import_seconds(), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    out = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    print_layer_table(args.workload, tracer, layers[-1][1], traced[-1], out)
    print(f"# {len(traced)} pairs of an untraced and a traced pass after a warm-up pass: median untraced "
          f"{statistics.median(untraced):.4f} s, traced {statistics.median(traced):.4f} s, "
          f"tracing overhead (median of the pair differences) {overhead:+.4f} s, pair differences from "
          f"{min(diffs):+.4f} to {max(diffs):+.4f} s")
    return result(tally, metrics)


def print_layer_table(workload, tracer, per_name, traced, out) -> None:
    layers: dict[str, list] = {}
    for name, rec in per_name.items():
        acc = layers.setdefault(name.split(".")[0], [0, 0.0])
        acc[0] += rec["calls"]
        acc[1] += rec["self_s"]
    print(f"# {workload}: self time per layer in the last traced pass ({len(tracer.start)} spans, {out})")
    print(f"# {'layer':<12} {'spans':>9} {'self_s':>10} {'share':>7}")
    for layer in spans.LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        print(f"# {layer:<12} {calls:>9} {self_s:>10.4f} {100 * self_s / traced if traced else 0:>6.1f}%")


def result(tally: Tally, metrics: dict) -> dict:
    for line in tally.failures[:20]:
        print(f"# FAILED {line}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="also append the result, with workload and seed, to DIR/results.jsonl")
    args = ap.parse_args(argv)
    if not (SRC / "aspeq" / "__init__.py").is_file():
        print(f"error: no aspeq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tasks = workloads.build(args.workload, args.seed)
    workloads.certify({t.pair for t in tasks if t.pair is not None})
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.workload == "cli-small":
            runner = CliRunner(tasks, workdir, in_process=bool(args.trace))
        else:
            runner = LibraryRunner(tasks)
        res = (traced_run if args.trace else timed_run)(args, tasks, runner)
    finally:
        for f in workdir.glob("*"):
            f.unlink()
        if workdir.exists():
            workdir.rmdir()
    if args.record is not None:
        args.record.mkdir(parents=True, exist_ok=True)
        with open(args.record / "results.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **res}) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""eqdesign benchmark: one seeded workload per invocation, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hamiltonian --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  After set-up, whole passes over
the fixed op list run until ``--seconds`` have elapsed (always at least
one).  Every answer is checked against ``perfbench/reference.py`` or the
paper's values after its pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no tracing
wrapper installed and corrected for the host's momentary speed (see
``speed.py``); with ``--trace 1`` one untraced pass is followed by one
traced pass and the metrics are the per-layer ones of the traced pass, in
raw seconds.

The process re-executes itself with a fixed ``PYTHONHASHSEED``: string
hashing decides set iteration order inside the solvers, and across hash
seeds one decision alone ranged 14.4-17.8 s.  It runs single-threaded and
starts no other process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedClock
from workloads import WORKLOADS

HASH_SEED = "0"
REEXEC_MARK = "PERFBENCH_REEXEC"
SETUP_REPEATS = 11
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
PROGRAM_MODULES = ("eqdesign", "eqdesign.cli", "eqdesign.design", "eqdesign.equilibria",
                   "eqdesign.rewards", "eqdesign.benchmarks", "eqdesign.fileio")


class Modules:
    """The program's modules from the latest import, by short name."""

    def __init__(self) -> None:
        for name in PROGRAM_MODULES[1:]:
            setattr(self, name.rsplit(".", 1)[1], sys.modules[name])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, clock):
    """Import the program and build the op list, several times.

    Every repeat drops the program's modules first, so each one pays the
    import, the input generation and the fixture writing.  Returns the op
    list of the last repeat and the interval of every repeat.
    """
    intervals = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "eqdesign" or m.startswith("eqdesign.")]:
            del sys.modules[name]
        mark = clock.mark()
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        eq = Modules()
        ops = WORKLOADS[workload](eq, seed, OUT_DIR / workload)
        intervals.append(clock.since(mark))
    return ops, intervals


def run_pass(ops, clock, tracer=None):
    """Run every op once, then check the answers.

    Returns the pass interval, one interval per op, the ops that raised,
    the ops whose answers were refuted, and the pass's counters.
    """
    answers = {}
    errors = {}
    intervals = []
    pass_mark = clock.mark()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        mark = clock.mark()
        try:
            answers[op.name] = op.call()
        except Exception as exc:  # a refused or crashed op is a miss, not an abort
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        intervals.append(clock.since(mark))
        if tracer is not None:
            tracer.end_op()
    wall = clock.since(pass_mark)

    tally = {}
    wrong = {}
    for op in ops:
        if op.name in errors:
            continue
        try:
            problem = op.check(answers[op.name], answers, tally)
        except Exception as exc:  # unreadable output is a wrong answer
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            wrong[op.name] = problem
    return wall, intervals, errors, wrong, tally


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get(REEXEC_MARK) != "1":
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{REEXEC_MARK: "1"})
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    if not (ROOT / "src" / "eqdesign" / "__init__.py").is_file():
        print(f"error: no eqdesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    import tracing

    # The timed run samples the host's speed; the traced run reports raw
    # times, which its self-time shares and overhead are made of.
    with SpeedClock(sample=not args.trace) as clock:
        ops, setup_intervals = set_up(args.workload, args.seed, clock)
        stray = tracing.installed_wrappers()
        if stray:
            raise RuntimeError(f"tracing wrappers installed in a timed run: {stray}")
        passes = []
        deadline = time.perf_counter() + args.seconds
        while True:
            passes.append(run_pass(ops, clock))
            if args.trace or time.perf_counter() >= deadline:
                break
        if tracing.installed_wrappers():
            raise RuntimeError("tracing wrappers appeared during a timed run")

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(ops, clock, tracer))
            finally:
                tracer.uninstall()

    attempted = len(ops) * len(passes)
    errors = sum(len(p[2]) for p in passes)
    wrong = sum(len(p[3]) for p in passes)
    failed = errors + wrong
    for k, (_, _, errs, wrongs, _) in enumerate(passes):
        for name, why in {**errs, **wrongs}.items():
            print(f"miss: pass {k} op {name}: {why}")

    # Times in reference seconds; an op counts at its median over passes.
    per_op = [statistics.median(clock.corrected(p[1][k]) for p in passes)
              for k in range(len(ops))]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(clock.corrected(i) for i in setup_intervals), "s"),
            "wall_s": (statistics.median(clock.corrected(p[0]) for p in passes), "s"),
            "op_p50_ms": (quantile(per_op, 0.5) * 1e3, "ms"),
            "op_p90_ms": (quantile(per_op, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["equilibria.bound_binding"] = (passes[-1][4].get("bound_binding", 0), "count")
        metrics["trace.overhead_s"] = (passes[-1][0].raw_s - passes[0][0].raw_s, "s")
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    info = {
        "workload": args.workload, "seed": args.seed, "pythonhashseed": HASH_SEED,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "source_lines": sum(len(f.read_text().splitlines())
                            for f in (ROOT / "src" / "eqdesign").glob("*.py")),
        "passes": len(passes), "ops_per_pass": len(ops),
        "fail_rate": failed / attempted, "errors": errors, "wrong_answers": wrong,
    }
    if len(ops) <= 40:
        info["op_ms"] = {op.name: round(t * 1e3, 1) for op, t in zip(ops, per_op)}
    print(json.dumps(info))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

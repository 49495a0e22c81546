"""Command-line front end.

Subcommands: ``compute`` (extreme equilibrium value approximation),
``check`` (improvement decision), ``synth`` (witness machine to a file),
``gen`` (benchmark instances), ``verify`` (exact re-solve of a game and an
implemented machine).  All numeric output is exact, rationals printed as
``p/q``; each run emits one summary line per value followed by a canonical
JSON result document.  Exit codes: 0 yes/success, 1 no, 2 usage or parse
error, 3 internal limit exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from .auxiliary import build_auxiliary
from .benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_infinite_memory_example,
    gen_random_game,
    gen_tsp_game,
)
from .design import (
    ImprovementQuery,
    decide_improvement,
    epsilon_best_ne,
    epsilon_worst_ne,
)
from .equilibria import NashLassoSolver
from .fileio import (
    DocumentError,
    canonical_json,
    parse_game,
    parse_rm,
    serialize_game,
    serialize_rm,
)
from .games import Game
from .rewards import implement, is_beta_rm
from .zerosum import SolverLimitError

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _emit(out, summary: dict, doc: dict) -> None:
    for key, value in summary.items():
        print(f"{key} = {value}", file=out)
    print(canonical_json(doc), end="", file=out)


def _load_game(path: str) -> Game:
    return parse_game(Path(path).read_text())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdesign",
        description="Equilibrium design for multi-player mean-payoff games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="approximate an extreme equilibrium value")
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--worst", action="store_true")
    group.add_argument("--best", action="store_true")
    p_compute.add_argument("--fixed0", action="store_true",
                           help="designer-fixed value of the auxiliary game")
    p_compute.add_argument("--budget", type=int, default=None,
                           help="budget for the auxiliary game (with --fixed0; default 0)")
    p_compute.add_argument("--epsilon", type=_fraction, required=True)
    p_compute.add_argument("--bound", type=int, default=12)
    p_compute.add_argument("game")

    p_check = sub.add_parser("check", help="decide an improvement problem")
    p_synth = sub.add_parser("synth", help="synthesize a witness reward machine")
    for p in (p_check, p_synth):
        p.add_argument("--mode", choices=["strong", "weak"], required=True)
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--delta", type=_fraction, required=True)
        p.add_argument("--epsilon", type=_fraction, required=True)
        p.add_argument("--method", choices=["paper", "certify"], default="certify")
        p.add_argument("--bound", type=int, default=12)
        p.add_argument("game")
    p_synth.add_argument("--out", required=True, help="path for the machine document")

    p_gen = sub.add_parser("gen", help="generate benchmark instances")
    p_gen.add_argument("family",
                       choices=["example1", "tsp", "ham", "ham-co", "a1", "random"])
    p_gen.add_argument("--dest", default=".")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cities", type=int, default=4)
    p_gen.add_argument("--negated", action="store_true")
    p_gen.add_argument("--edges", default="",
                       help="comma-separated directed edges like v1>v2,v2>v3")
    p_gen.add_argument("--players", type=int, default=2)
    p_gen.add_argument("--states", type=int, default=3)
    p_gen.add_argument("--actions", type=int, default=2)

    p_verify = sub.add_parser("verify", help="exact extreme values of a game / product")
    p_verify.add_argument("game")
    p_verify.add_argument("rm", nargs="?")
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.add_argument("--bound", type=int, default=12)
    return parser


def _cmd_compute(args, out) -> int:
    if args.budget is not None and not args.fixed0:
        raise ValueError("--budget applies only with --fixed0")
    game = _load_game(args.game)
    target = game
    if args.fixed0:
        target = build_auxiliary(game, args.budget or 0).game
    if args.worst:
        value = epsilon_worst_ne(target, args.epsilon, fixed0=args.fixed0,
                                 bound=args.bound)
        kind = "worst"
    else:
        value = epsilon_best_ne(target, args.epsilon, fixed0=args.fixed0,
                                bound=args.bound)
        kind = "best"
    doc = {
        "command": "compute",
        "kind": kind,
        "fixed0": args.fixed0,
        "epsilon": str(args.epsilon),
        "value": str(value),
    }
    _emit(out, {f"epsilon_{kind}_ne": value}, doc)
    return EXIT_YES


def _cmd_check(args, out, want_machine: bool) -> int:
    game = _load_game(args.game)
    query = ImprovementQuery(
        budget=args.budget, delta=args.delta, epsilon=args.epsilon,
        mode=args.mode, method=args.method, bound=args.bound,
    )
    answer = decide_improvement(game, query)
    doc = {
        "command": "synth" if want_machine else "check",
        "mode": answer.mode,
        "method": answer.method,
        "budget": args.budget,
        "delta": str(args.delta),
        "epsilon": str(args.epsilon),
        "decision": answer.decision,
        "baseline_value": str(answer.baseline_value),
        "improved_value": str(answer.improved_value),
    }
    if answer.witness_lasso is not None:
        doc["witness_lasso"] = answer.witness_lasso.describe(answer.witness_game)
    summary = {
        "decision": "yes" if answer.decision else "no",
        "baseline_value": answer.baseline_value,
        "improved_value": answer.improved_value,
    }
    if want_machine:
        if not answer.decision or answer.witness_rm is None:
            _emit(out, summary, doc)
            return EXIT_NO
        Path(args.out).write_text(serialize_rm(answer.witness_rm, game))
        doc["machine_file"] = args.out
        summary["machine_file"] = args.out
        _emit(out, summary, doc)
        return EXIT_YES
    _emit(out, summary, doc)
    return EXIT_YES if answer.decision else EXIT_NO


def _parse_edges(text: str) -> CostDigraph:
    edges = []
    vertices: list[str] = []
    for item in filter(None, (chunk.strip() for chunk in text.split(","))):
        if ">" not in item:
            raise DocumentError(f"edges: expected 'u>v', got {item!r}")
        u, _, v = item.partition(">")
        edges.append((u, v))
        for w in (u, v):
            if w not in vertices:
                vertices.append(w)
    if not edges:
        raise DocumentError("edges: at least one edge required")
    return CostDigraph(tuple(sorted(vertices)), tuple(edges))


def _cmd_gen(args, out) -> int:
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    def put(name: str, text: str) -> None:
        path = dest / name
        path.write_text(text)
        written[name] = str(path)

    if args.family == "example1":
        game, m1, m2 = gen_example1()
        put("example1.game", serialize_game(game))
        put("example1_m1.rm", serialize_rm(m1, game))
        put("example1_m2.rm", serialize_rm(m2, game))
    elif args.family == "tsp":
        rng = random.Random(("eqdesign-tsp", args.seed).__repr__())
        base = complete_digraph(args.cities)
        costs = {e: rng.randint(1, 9) for e in base.edges}
        game = gen_tsp_game(complete_digraph(args.cities, costs), negated=args.negated)
        put(f"tsp_{args.seed}.game", serialize_game(game))
    elif args.family in ("ham", "ham-co"):
        graph = _parse_edges(args.edges)
        if args.family == "ham":
            game = gen_hamiltonian_game(graph)
            put("hamiltonian.game", serialize_game(game))
        else:
            game = gen_hamiltonian_complement_game(graph)
            put("hamiltonian_complement.game", serialize_game(game))
    elif args.family == "a1":
        put("infinite_memory.game", serialize_game(gen_infinite_memory_example()))
    else:
        game = gen_random_game(args.seed, args.players, args.states, args.actions)
        put(f"random_{args.seed}.game", serialize_game(game))
    _emit(out, {"written": ", ".join(sorted(written))},
          {"command": "gen", "family": args.family, "files": written})
    return EXIT_YES


def _cmd_verify(args, out) -> int:
    if args.budget is not None and args.rm is None:
        raise ValueError("--budget applies only with a machine document")
    game = _load_game(args.game)
    doc: dict = {"command": "verify"}
    summary: dict = {}
    # Read the machine first, so a malformed document is refused before any solve.
    rm = None if args.rm is None else parse_rm(Path(args.rm).read_text(), game)
    if args.budget is not None:
        doc["within_budget"] = is_beta_rm(rm, args.budget)
    worst = _verify_extremes(game, "game", args.bound, doc, summary)
    if rm is not None:
        p_worst = _verify_extremes(implement(game, rm), "product", args.bound, doc, summary)
        if worst is not None and p_worst is not None:
            doc["worst_improvement"] = str(p_worst.global_payoff - worst.global_payoff)
    _emit(out, summary, doc)
    return EXIT_YES


def _verify_extremes(game: Game, name: str, bound: int, doc: dict, summary: dict):
    """Record ``game``'s certified worst and best equilibrium values, the
    two ends of one solver's signature list; return the worst witness."""
    solver = NashLassoSolver(game, None, bound)
    # One exhaustive sweep serves both ends: two floored sweeps cost more.
    sigs = solver.signatures()
    worst, best = map(solver.witness, (sigs[0], sigs[-1])) if sigs else (None, None)
    doc[f"{name}_worst_ne"] = None if worst is None else str(worst.global_payoff)
    doc[f"{name}_best_ne"] = None if best is None else str(best.global_payoff)
    summary[f"{name}_worst_ne"] = "none" if worst is None else worst.global_payoff
    return worst


def cli_main(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_YES
    try:
        if args.command == "compute":
            return _cmd_compute(args, out)
        if args.command == "check":
            return _cmd_check(args, out, want_machine=False)
        if args.command == "synth":
            return _cmd_check(args, out, want_machine=True)
        if args.command == "gen":
            return _cmd_gen(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        raise AssertionError("unreachable")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

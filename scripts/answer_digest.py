#!/usr/bin/env python3
"""Print one line per answer to a fixed set of exact questions.

Two checkouts that print the same lines give the same answers, so a change
meant to leave every answer alone is checked by running this script on both
and comparing the outputs byte for byte::

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/answer_digest.py > after.txt
    cmp before.txt after.txt

The lines cover the four criterion-5 improvement decisions, the serialized
Hamiltonian constructions, certify decisions on the running example and on
seeded two-player games, the k-loop delivery machines, and, on seeded
random games with two and three players: every equilibrium signature (as a
digest), the extreme witnesses (each extreme signature is asserted to be
the matching end of the signature list), the machines built from them (as
a digest; distinct top lassos are asserted to replay as distinct machines),
oracle and LP answers on point and half-line designer windows and on
player windows, binary-search runs, and the zero-sum engine read directly:
each non-fixed player's punishment values (levels, ranks and coalition
witness) and each player's exact best response against seeded strategies
of the others (both as digests).  Apart from ``design.replay_machine``,
only public names are used, so the script runs unchanged against older
checkouts that have that function.
"""

import argparse
import hashlib
from fractions import Fraction

from eqdesign.auxiliary import (
    build_auxiliary,
    lift_strategy,
    lower_strategy,
    rm_to_strategy,
)
from eqdesign.benchmarks import (
    CostDigraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_random_game,
    gen_random_strategy,
)
from eqdesign.design import (
    MAX_LASSO_CANDIDATES,
    ImprovementQuery,
    algorithm_trace,
    decide_improvement,
    replay_machine,
)
from eqdesign.equilibria import NEG_INF, POS_INF, NashLassoSolver, ThresholdQuery
from eqdesign.fileio import serialize_game
from eqdesign.games import StrategyProfile
from eqdesign.rewards import implement, k_cycle_delivery_rm
from eqdesign.zerosum import SolverLimitError, best_response_value, punishment_values

WITH_PATH = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))
WITHOUT_PATH = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3")))
# Designer thresholds of the windows asked on every random game.
THRESHOLDS = tuple(Fraction(k, 2) for k in range(-5, 6)) + (Fraction(1, 3), Fraction(-2, 3))
EPSILONS = (Fraction(1), Fraction(1, 8))
# Seeded two-player games given certify decisions, at most.
CERTIFY_SEEDS = 40


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer(fn, show=repr) -> str:
    """``show(fn())``, or the refusal ``fn`` raised."""
    try:
        return show(fn())
    except SolverLimitError as exc:
        return f"refused: {exc}"


def witness_line(w) -> str:
    if w is None:
        return "None"
    return f"{w.lasso!r} {w.player_payoffs!r} {w.global_payoff!r}"


def improvement_line(ans) -> str:
    key = None if ans.witness_rm is None else ans.witness_rm.canonical_key()
    return (f"{'yes' if ans.decision else 'no'} {ans.baseline_value} "
            f"{ans.improved_value} {key!r} {ans.witness_lasso!r}")


def decisions() -> None:
    for mode, make in (("strong", gen_hamiltonian_game),
                       ("weak", gen_hamiltonian_complement_game)):
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1),
                             mode=mode, method="certify")
        for name, graph in (("with", WITH_PATH), ("without", WITHOUT_PATH)):
            print(f"decision {mode} {name}: {improvement_line(decide_improvement(make(graph), q))}")
    for name, graph in (("with", WITH_PATH), ("without", WITHOUT_PATH)):
        for make in (gen_hamiltonian_game, gen_hamiltonian_complement_game):
            print(f"serialized {make.__name__} {name}: {digest(serialize_game(make(graph)))}")


def certify_decisions(seeds: int) -> None:
    """Certify decisions (budget 1, delta 1/2, epsilon 1/8) on the running
    example and on ``gen_random_game(seed, 2, 3, 2)`` for each seed."""
    games = [("example1", gen_example1()[0])]
    games += [(f"random {seed}", gen_random_game(seed, 2, 3, 2)) for seed in range(seeds)]
    for name, game in games:
        for mode in ("strong", "weak"):
            q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 8),
                                 mode=mode, method="certify")
            print(f"certify {name} {mode}: "
                  f"{answer(lambda: decide_improvement(game, q), improvement_line)}")


def delivery_machines() -> None:
    robot = gen_example1()[0]
    machines = [k_cycle_delivery_rm(robot, k) for k in range(1, 5)]
    print(f"delivery machines 1-4: {digest(repr(machines))}")


def translations(game, bound: int) -> list:
    """Machines and strategies built from the budget-1 auxiliary game.

    The designer's worst and best lassos are replayed as reward machines
    and turned into agent-0 strategies; on each machine's product, one
    seeded strategy per player is lifted into the auxiliary game and lowered
    again.  The replays of the distinct (value, length) pairs of the top
    sweep, the lassos certify replays, are asserted to be distinct machines.
    """
    aux = build_auxiliary(game, 1)
    solver = NashLassoSolver(aux.game, 0, bound)
    pairs = {}
    for rec in solver.signatures(top=MAX_LASSO_CANDIDATES):
        pairs.setdefault((rec[3][-1], rec[2]), rec)
    replays = {replay_machine(aux, solver.realize(rec)).canonical_key()
               for rec in pairs.values()}
    assert len(replays) == len(pairs), "two (value, length) pairs replay as one machine"
    out = []
    for maximize in (False, True):
        rec = solver.extreme_signature(maximize)
        if rec is None:
            out.append(None)
            continue
        rm = replay_machine(aux, solver.realize(rec))
        product = implement(game, rm)
        out += [rm, rm_to_strategy(aux, rm)]
        for player in range(game.n_players):
            lifted = lift_strategy(aux, rm, product,
                                   gen_random_strategy(product, player, bound), player)
            out += [lifted, lower_strategy(aux, rm, product, lifted, player)]
    return out


def zero_sum_lines(tag: str, game, fixed) -> None:
    """Punishments of the non-fixed players, and best responses of every
    player against one seeded strategy per other player."""
    pun = [answer(lambda: punishment_values(game, i),
                  lambda r: repr((r.levels, r.ranks, r.coalition)))
           for i in range(game.n_players) if i != fixed]
    print(f"{tag} punishments: {digest(repr(pun))}")
    profile = StrategyProfile(tuple(range(game.n_players)), tuple(
        gen_random_strategy(game, i, i + game.n_states) for i in range(game.n_players)))
    brs = [answer(lambda: best_response_value(game, profile.without(i), i))
           for i in range(game.n_players)]
    print(f"{tag} best responses: {digest(repr(brs))}")


def threshold_line(tag: str, solver: NashLassoSolver, q: ThresholdQuery) -> None:
    print(f"{tag}: {solver.query_oracle(q)!r} {solver.lp_feasible(q)} "
          f"{answer(lambda: solver.lp_witness(q), witness_line)}")


def random_game(seed: int, n_players: int, fixed) -> None:
    game = gen_random_game(seed, n_players, 2 + seed % 4, 2)
    bound = 3 + seed % 6
    tag = f"game {seed} {n_players} {fixed} {bound}"
    solver = NashLassoSolver(game, fixed, bound)
    sigs = solver.signatures()
    print(f"{tag} signatures: {len(sigs)} {digest(repr(sigs))}")
    built = []
    for maximize in (False, True):
        rec = solver.extreme_signature(maximize)
        # The sweep toward the extreme cross-checks the exhaustive one.
        assert rec == ((sigs[-1] if maximize else sigs[0]) if sigs else None), tag
        w = answer(lambda: None if rec is None else solver.witness(rec), witness_line)
        print(f"{tag} extreme {maximize}: {rec!r} {w}")
        built.append(answer(lambda: None if rec is None else solver.witness(rec).profile))
    if fixed is None:
        built += translations(game, bound)
    print(f"{tag} machines: {digest(repr(built))}")
    zero_sum_lines(tag, game, fixed)
    free = ((NEG_INF,) * n_players, (POS_INF,) * n_players)
    for c in THRESHOLDS:
        for lo, hi in ((c, c), (NEG_INF, c), (c, POS_INF)):
            q = ThresholdQuery(*free, lo, hi, fixed)
            threshold_line(f"{tag} window [{lo}, {hi}]", solver, q)
        # Player windows: the first player at least c, the last at most -c.
        lower, upper = list(free[0]), list(free[1])
        lower[0], upper[-1] = c, -c
        q = ThresholdQuery(tuple(lower), tuple(upper), NEG_INF, POS_INF, fixed)
        threshold_line(f"{tag} players {c}", solver, q)
    for maximize in (False, True):
        for eps in EPSILONS:
            for backend in ("oracle", "lp"):
                r = answer(lambda: algorithm_trace(game, eps, fixed == 0, maximize,
                                                   backend, bound))
                print(f"{tag} search {maximize} {eps} {backend}: {r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=50,
                        help="random games per player count and fixed player (default 50)")
    args = parser.parse_args()
    decisions()
    certify_decisions(min(args.seeds, CERTIFY_SEEDS))
    delivery_machines()
    for seed in range(args.seeds):
        for n_players in (2, 3):
            for fixed in (None, 0):
                random_game(seed, n_players, fixed)


if __name__ == "__main__":
    main()

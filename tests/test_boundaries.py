"""Validation happens once, where a caller's object enters the library.

Public functions validate the lassos, strategies and profiles they are
given; what they build from inputs they have checked is not checked again.
The property test here re-checks every such built object on seeded games,
so a builder that emits an illegal table fails the suite instead of every
run.  The refusal tests pin the entry points that keep their input check,
and one table pins each remaining refusal of malformed input by its error
class and message.
"""

import dataclasses
import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqdesign.equilibria
from eqdesign.auxiliary import (
    build_auxiliary,
    lift_strategy,
    lower_strategy,
    rm_to_strategy,
    strategy_to_rm,
)
from eqdesign.benchmarks import (
    CostDigraph,
    gen_example1,
    gen_random_game,
    gen_random_strategy,
)
from eqdesign.design import (
    ImprovementQuery,
    algorithm_trace,
    epsilon_best_ne,
    epsilon_worst_ne,
    replay_machine,
)
from eqdesign.equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    ThresholdQuery,
    grim_trigger_profile,
    is_ne_outcome,
    ne_threshold,
)
from eqdesign.fileio import DocumentError, parse_game
from eqdesign.games import (
    Arena,
    GameStructureError,
    InvalidLassoError,
    InvalidStrategyError,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    payoffs,
    run_profile,
)
from eqdesign.rewards import (
    RewardMachine,
    RewardMachineError,
    from_subsidy_scheme,
    implement,
    is_beta_rm,
    k_cycle_delivery_rm,
    zero_rm,
)
from eqdesign.zerosum import SolverLimitError, best_response_value, punishment_values

from conftest import constant_strategy


def extremes_and_middle(sigs):
    return [sigs[k] for k in sorted({0, len(sigs) // 2, len(sigs) - 1})] if sigs else []


class TestBuiltObjectsValidate:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4))
    def test_builders_emit_valid_objects(self, seed, n_players, n_states):
        game = gen_random_game(seed, n_players, n_states)
        solver = NashLassoSolver(game, None, bound=6)
        for rec in extremes_and_middle(solver.signatures()):
            lasso = solver.realize(rec)
            lasso.validate(game)
            grim_trigger_profile(game, lasso).validate(game)
            try:
                witness = solver.witness(rec)
            except SolverLimitError:  # a grim profile may fail with three players
                continue
            witness.lasso.validate(game)
            witness.profile.validate(game)
        free = ThresholdQuery((NEG_INF,) * n_players, (POS_INF,) * n_players)
        try:
            witness = solver.lp_witness(free)
        except SolverLimitError:
            witness = None
        if witness is not None:
            witness.lasso.validate(game)
            witness.profile.validate(game)

        aux = build_auxiliary(game, 1)
        aux_solver = NashLassoSolver(aux.game, 0, bound=4)
        designer_lassos = [aux_solver.realize(rec)
                           for rec in extremes_and_middle(aux_solver.signatures())]
        # A run of random strategies is a designer lasso too, equilibrium or not.
        free_run = run_profile(aux.game, StrategyProfile(
            tuple(range(n_players + 1)),
            tuple(gen_random_strategy(aux.game, i, seed + i) for i in range(n_players + 1))))
        for lasso in [*designer_lassos, free_run]:
            lasso.validate(aux.game)
            rm = replay_machine(aux, lasso)
            rm.validate_for(game)
            assert is_beta_rm(rm, 1)
            back = rm_to_strategy(aux, rm)
            back.validate(aux.game, 0)
            product = implement(game, rm)
            lifted, lowered = [], []
            for i in range(n_players):
                sigma = gen_random_strategy(product, i, seed + 7 * i)
                lifted.append(lift_strategy(aux, rm, product, sigma, i))
                lifted[-1].validate(aux.game, i + 1)
                hat = gen_random_strategy(aux.game, i + 1, seed + 11 * i)
                lowered.append(lower_strategy(aux, rm, product, hat, i))
                lowered[-1].validate(product, i)
            players = tuple(range(n_players))
            run_profile(product, StrategyProfile(players, tuple(lowered))).validate(product)
            run_profile(aux.game, StrategyProfile((0, *(i + 1 for i in players)),
                                                  (back, *lifted))).validate(aux.game)


def bad_strategy(kind: str, game, player: int) -> MealyStrategy:
    """A one-memory strategy for ``player`` that is wrong in one way."""
    n = game.n_states
    step = [0] * n
    act = [game.protocol[player][s][0] for s in range(n)]
    if kind == "missing state":
        step, act = step[:-1], act[:-1]
    elif kind == "memory out of range":
        step[-1] = 1
    elif kind == "action id past the alphabet":
        act[0] = len(game.action_names)
    elif kind == "action id -1":
        act[0] = -1
    else:
        s, a = next((s, a) for s in range(n) for a in range(len(game.action_names))
                    if a not in game.protocol[player][s])
        act[s] = a
    return MealyStrategy(1, 0, (tuple(step),), (tuple(act),))


@pytest.fixture(scope="module")
def delivery():
    """Example 1, its budget-1 auxiliary game, a vector-tracking machine
    (the round trip of delivery machine M1) and that machine's product."""
    game, m1, _ = gen_example1()
    aux = build_auxiliary(game, 1)
    rm = strategy_to_rm(aux, rm_to_strategy(aux, m1))
    return game, aux, rm, implement(game, rm)


# Each entry point receives a bad strategy from ``bad(game, player)``.
ENTRY_POINTS = {
    "best_response_value": lambda bad, game, aux, rm, product: best_response_value(
        game, StrategyProfile((0,), (bad(game, 0),)), 1),
    "run_profile": lambda bad, game, aux, rm, product: run_profile(
        game, StrategyProfile((0, 1), (bad(game, 0), gen_random_strategy(game, 1, 0)))),
    "strategy_to_rm": lambda bad, game, aux, rm, product: strategy_to_rm(
        aux, bad(aux.game, 0)),
    "lift_strategy": lambda bad, game, aux, rm, product: lift_strategy(
        aux, rm, product, bad(product, 0), 0),
    "lower_strategy": lambda bad, game, aux, rm, product: lower_strategy(
        aux, rm, product, bad(aux.game, 1), 0),
}


def pair():
    """Players p1 and p2 on states s0-s2; s0 under joint (0, 0) loops back to
    s0, and p1 may play only action a0 at s2."""
    return gen_random_game(1, 2, 3, 2)


BAD_LASSOS = {
    "short joint": (Lasso((), (0,), (), ((0,),)), "(0,) at 's0' needs one entry per player"),
    "long joint": (Lasso((), (0,), (), ((0, 0, 0),)),
                   "(0, 0, 0) at 's0' needs one entry per player"),
    "id 99": (Lasso((), (0,), (), ((99, 0),)), "action id 99 not allowed at 's0' for 'p1'"),
    "id -1": (Lasso((), (0,), (), ((0, -1),)), "action id -1 not allowed at 's0' for 'p2'"),
    "off-protocol action": (Lasso((), (2,), (), ((1, 1),)),
                            "action 'a1' not allowed at 's2' for 'p1'"),
    "inconsistent step": (Lasso((), (0, 1), (), ((0, 0), (0, 0))),
                          "step at 's0' is not transition-consistent"),
}


def robot():
    """Example 1's game: one player, states t, l, m and r."""
    return gen_example1()[0]


def translate(direction, player):
    """``lift_strategy`` or ``lower_strategy`` on Example 1, its budget-1
    auxiliary game and delivery machine M1, of a valid strategy, for
    ``player``."""
    game, m1, _ = gen_example1()
    aux, product = build_auxiliary(game, 1), implement(game, m1)
    if direction == "lift":
        return lift_strategy(aux, m1, product, gen_random_strategy(product, 0, 0), player)
    return lower_strategy(aux, m1, product, gen_random_strategy(aux.game, 1, 0), player)


FREE = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2)

# case -> (build the malformed input, error class, message fragment)
REFUSALS = {
    "arena without players": (lambda: Arena(0, (), {}), GameStructureError,
                              "at least one player and one state"),
    "arena initial": (lambda: Arena(1, (((0,),),), {(0, (0,)): 0}), GameStructureError,
                      "initial state out of range"),
    "arena ragged protocol": (lambda: Arena(0, (((0,),), ((0,), (0,))), {(0, (0, 0)): 0}),
                              GameStructureError, "player 1: tables must cover every state"),
    "arena target": (lambda: Arena(0, (((0,),),), {(0, (0,)): 1}), GameStructureError,
                     "transition target out of range"),
    "game weights": (lambda: dataclasses.replace(robot(), weights=((0, 0),)),
                     GameStructureError, "weight tables must cover every player and state"),
    "strategy without memory": (lambda: MealyStrategy(0, 0, (), ()), InvalidStrategyError,
                                "memory set must be nonempty"),
    "strategy tables": (lambda: MealyStrategy(1, 0, (), ()), InvalidStrategyError,
                        "step/act tables must cover every memory state"),
    "strategy action id 99": (lambda: MealyStrategy(1, 0, ((0, 0, 0),), ((99, 0, 0),))
                              .validate(pair(), 0), InvalidStrategyError,
                              "action id 99 not allowed for player 'p1' at 's0'"),
    "strategy action id -1": (lambda: MealyStrategy(1, 0, ((0, 0, 0),), ((-1, 0, 0),))
                              .validate(pair(), 0), InvalidStrategyError,
                              "action id -1 not allowed for player 'p1' at 's0'"),
    "strategy float action": (lambda: MealyStrategy(1, 0, ((0, 0, 0),), ((0.0, 0, 0),))
                              .validate(pair(), 0), InvalidStrategyError,
                              "action 0.0 for player 'p1' at 's0' is not an action id"),
    "strategy float memory": (lambda: MealyStrategy(1, 0, ((0.0, 0, 0),), ((0, 0, 0),))
                              .validate(pair(), 0), InvalidStrategyError,
                              "memory update 0.0 is not a memory index"),
    "profile arity": (lambda: StrategyProfile((0, 1), ()), InvalidStrategyError,
                      "exactly one strategy per player"),
    "run of a partial profile": (lambda: run_profile(pair(), StrategyProfile(
        (0,), (constant_strategy(pair(), 0),))), InvalidStrategyError, "cover exactly the game's players"),
    "lasso prefix moves": (lambda: Lasso((0,), (0,), (), ((0,),)), InvalidLassoError,
                           "prefix needs one realizing action per step"),
    "lasso cycle moves": (lambda: Lasso((), (0,), (), ()), InvalidLassoError,
                          "cycle needs one realizing action per step"),
    "lasso start": (lambda: payoffs(robot(), Lasso((), (5,), (), ((0,),))), InvalidLassoError,
                    "states out of range"),
    "lasso list joint": (lambda: payoffs(pair(), Lasso((), (0,), (), ([0, 0],))),
                         InvalidLassoError, "joint action [0, 0] at 's0' is not a tuple"),
    "lasso name state": (lambda: payoffs(pair(), Lasso((), ("s0",), (), ((0, 0),))),
                         InvalidLassoError, "state 's0' is not a state index"),
    "lasso float action": (lambda: payoffs(pair(), Lasso((), (0,), (), ((0.0, 0),))),
                           InvalidLassoError, "action 0.0 at 's0' for 'p1' is not an action id"),
    "lasso bool action": (lambda: payoffs(pair(), Lasso((), (0,), (), ((0, False),))),
                          InvalidLassoError, "action False at 's0' for 'p2' is not an action id"),
    "machine without states": (lambda: RewardMachine((), 0, (), ()), RewardMachineError,
                               "machine needs states and a valid initial state"),
    "machine tables": (lambda: RewardMachine(("q",), 0, (), ()), RewardMachineError,
                       "step/reward tables must cover every machine state"),
    "machine ragged": (lambda: RewardMachine(("q", "r"), 0, ((0,), (0, 0)),
                                             (((0,),), ((0,), (0,)))),
                       RewardMachineError, "tables must be rectangular"),
    "machine step": (lambda: RewardMachine(("q",), 0, ((1,),), (((0,),),)), RewardMachineError,
                     "machine transition out of range"),
    "machine reward": (lambda: RewardMachine(("q",), 0, ((0,),), (((-1,),),)),
                       RewardMachineError, "rewards must be naturals"),
    "machine players": (lambda: implement(robot(), RewardMachine(("q",), 0, ((0,) * 4,),
                                                                 (((0, 0),) * 4,))),
                        RewardMachineError, "machine rewards 2 players, game has 1"),
    "machine budget": (lambda: is_beta_rm(zero_rm(robot()), -1), RewardMachineError,
                       "budget must be a natural number"),
    "machine float budget": (lambda: is_beta_rm(zero_rm(robot()), 1.5), RewardMachineError,
                             "budget must be a natural number"),
    "subsidy key past the states": (lambda: from_subsidy_scheme(pair(), {99: (1, 0)}),
                                    RewardMachineError, "subsidy key 99 is not a state index"),
    "subsidy key -1": (lambda: from_subsidy_scheme(pair(), {-1: (1, 0)}), RewardMachineError,
                       "subsidy key -1 is not a state index"),
    "subsidy key name": (lambda: from_subsidy_scheme(pair(), {"s0": (1, 0)}),
                         RewardMachineError, "subsidy key 's0' is not a state index"),
    "subsidy key bool": (lambda: from_subsidy_scheme(pair(), {True: (1, 0)}),
                         RewardMachineError, "subsidy key True is not a state index"),
    "subsidy key float": (lambda: from_subsidy_scheme(pair(), {1.0: (1, 0)}),
                          RewardMachineError, "subsidy key 1.0 is not a state index"),
    "delivery bool k": (lambda: k_cycle_delivery_rm(robot(), True), RewardMachineError,
                        "k must be a positive integer, got True"),
    "delivery float k": (lambda: k_cycle_delivery_rm(robot(), 1.5), RewardMachineError,
                         "k must be a positive integer, got 1.5"),
    "delivery states": (lambda: k_cycle_delivery_rm(pair(), 1), RewardMachineError,
                        "robot arena states t, l, m"),
    "delivery players": (lambda: k_cycle_delivery_rm(
        dataclasses.replace(pair(), state_names=("t", "l", "m")), 1),
        RewardMachineError, "one-player robot game"),
    "digraph vertices": (lambda: CostDigraph(("v", "v"), ()), GameStructureError,
                         "duplicate vertices"),
    "digraph parallel": (lambda: CostDigraph(("u", "v"), (("u", "v"), ("u", "v"))),
                         GameStructureError, "parallel edges"),
    "digraph edge": (lambda: CostDigraph(("u",), (("u", "v"),)), GameStructureError,
                     "edge (u, v) uses unknown vertices"),
    "digraph costs": (lambda: CostDigraph(("u", "v"), (("u", "v"),), ()), GameStructureError,
                      "costs must cover exactly the edges"),
    "query epsilon": (lambda: ImprovementQuery(1, Fraction(1, 2), 0), ValueError,
                      "epsilon must be positive"),
    "query mode": (lambda: ImprovementQuery(1, Fraction(1, 2), 1, mode="middling"),
                   ValueError, "mode must be 'strong' or 'weak'"),
    "query method": (lambda: ImprovementQuery(1, Fraction(1, 2), 1, method="guess"),
                     ValueError, "method must be 'certify' or 'paper'"),
    "search backend": (lambda: epsilon_worst_ne(robot(), 1, backend="simplex"), ValueError,
                       "unknown backend 'simplex'"),
    "threshold players": (lambda: NashLassoSolver(pair()).query_oracle(
        ThresholdQuery((NEG_INF,), (POS_INF,))), ValueError, "bounds must cover every player"),
    "threshold fixed": (lambda: NashLassoSolver(pair()).query_oracle(
        dataclasses.replace(FREE, fixed_player=0)), ValueError,
        "query fixed player differs from the solver's fixed player"),
    "threshold backend": (lambda: ne_threshold(pair(), FREE, backend="simplex"), ValueError,
                          "unknown backend 'simplex'"),
    "alphabet budget": (lambda: build_auxiliary(robot(), -1), ValueError,
                        "budget must be a natural number"),
    "alphabet bool budget": (lambda: build_auxiliary(pair(), True), ValueError,
                             "budget must be a natural number"),
    "alphabet float budget": (lambda: build_auxiliary(pair(), 1.5), ValueError,
                              "budget must be a natural number"),
    "designer name": (lambda: build_auxiliary(
        dataclasses.replace(pair(), player_names=("agent0", "p2")), 0), GameStructureError,
        "may not name a player 'agent0'"),
    "responder committed": (lambda: best_response_value(pair(), StrategyProfile(
        (0,), (constant_strategy(pair(), 0),)), 0), ValueError, "must not appear in the committed profile"),
    "responder coalition": (lambda: best_response_value(pair(), StrategyProfile((), ()), 0),
                            ValueError, "must cover exactly the other players"),
    "responder bool": (lambda: best_response_value(pair(), StrategyProfile(
        (0,), (constant_strategy(pair(), 0),)), True), ValueError,
        "player True is not a player index"),
    "punished -1": (lambda: punishment_values(pair(), -1), ValueError,
                    "player -1 is not a player index"),
    "punished bool": (lambda: punishment_values(pair(), True), ValueError,
                      "player True is not a player index"),
    "punished past the players": (lambda: punishment_values(pair(), 2), ValueError,
                                  "player 2 is not a player index"),
    "punished float": (lambda: punishment_values(pair(), 1.0), ValueError,
                       "player 1.0 is not a player index"),
    "lifted -1": (lambda: translate("lift", -1), ValueError, "player -1 is not a player index"),
    "lifted bool": (lambda: translate("lift", True), ValueError,
                    "player True is not a player index"),
    "lifted past the players": (lambda: translate("lift", 1), ValueError,
                                "player 1 is not a player index"),
    "lifted float": (lambda: translate("lift", 1.0), ValueError,
                     "player 1.0 is not a player index"),
    "lowered -1": (lambda: translate("lower", -1), ValueError,
                   "player -1 is not a player index"),
    "random strategy bool": (lambda: gen_random_strategy(pair(), True, 0), ValueError,
                             "player True is not a player index"),
    "random strategy -1": (lambda: gen_random_strategy(pair(), -1, 0), ValueError,
                           "player -1 is not a player index"),
    "document top level": (lambda: parse_game("[]"), DocumentError,
                           "top level: expected an object"),
}


class TestBoundaryRefusals:
    @pytest.mark.parametrize("kind", ["missing state", "memory out of range",
                                      "action outside the protocol",
                                      "action id past the alphabet", "action id -1"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_refuses_bad_strategy(self, delivery, entry, kind):
        _, aux, rm, product = delivery
        # The game-level entry points need two players; example 1 has one.
        game = gen_random_game(5, n_players=2, n_states=3, n_actions=3)
        with pytest.raises(InvalidStrategyError):
            ENTRY_POINTS[entry](functools.partial(bad_strategy, kind), game, aux, rm, product)

    def test_translations_refuse_a_foreign_product(self, delivery):
        """The source game is not the machine's product: it has fewer states."""
        game, aux, rm, product = delivery
        assert game.n_states < product.n_states
        for translate, sigma in [(lift_strategy, gen_random_strategy(game, 0, 1)),
                                 (lower_strategy, gen_random_strategy(aux.game, 1, 1))]:
            with pytest.raises(RewardMachineError, match="not the implementation"):
                translate(aux, rm, game, sigma, 0)

    @pytest.mark.parametrize("kind", sorted(BAD_LASSOS))
    @pytest.mark.parametrize("entry", [payoffs, is_ne_outcome, grim_trigger_profile],
                             ids=lambda f: f.__name__)
    def test_entry_point_refuses_bad_lasso(self, entry, kind):
        lasso, message = BAD_LASSOS[kind]
        with pytest.raises(InvalidLassoError, match=re.escape(message)):
            entry(pair(), lasso)

    @pytest.mark.parametrize("search", [
        lambda: ne_threshold(pair(), FREE, backend="simplex"),
        lambda: algorithm_trace(pair(), Fraction(1, 2), backend="simplex"),
        lambda: epsilon_best_ne(pair(), Fraction(1, 2), backend="simplex"),
    ], ids=["ne_threshold", "algorithm_trace", "epsilon_best_ne"])
    def test_unknown_backend_refused_before_any_solve(self, search, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("punishment solved before the backend was read")

        monkeypatch.setattr(eqdesign.equilibria, "punishment_values", solve)
        with pytest.raises(ValueError, match="unknown backend 'simplex'"):
            search()

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_malformed_input_refused(self, case):
        build, error, message = REFUSALS[case]
        with pytest.raises(error, match=re.escape(message)) as refused:
            build()
        assert refused.type is error

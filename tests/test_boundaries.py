"""Validation happens once, where a caller's object enters the library.

Public functions validate the lassos, strategies and profiles they are
given; what they build from inputs they have checked is not checked again.
The property test here re-checks every such built object on seeded games,
so a builder that emits an illegal table fails the suite instead of every
run.  The refusal test pins the entry points that keep their input check.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign.auxiliary import (
    build_auxiliary,
    lift_strategy,
    lower_strategy,
    rm_to_strategy,
    strategy_to_rm,
)
from eqdesign.benchmarks import gen_example1, gen_random_game, gen_random_strategy
from eqdesign.design import replay_strategy
from eqdesign.equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    ThresholdQuery,
    grim_trigger_profile,
)
from eqdesign.games import InvalidStrategyError, MealyStrategy, StrategyProfile, run_profile
from eqdesign.rewards import RewardMachineError, implement
from eqdesign.zerosum import SolverLimitError, best_response_value


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
            grim_trigger_profile(game, lasso, None, solver.pun).validate(game)
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
            sigma0 = replay_strategy(aux, lasso)
            sigma0.validate(aux.game, 0)
            rm = strategy_to_rm(aux, sigma0)
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


class TestBoundaryRefusals:
    @pytest.mark.parametrize("kind", ["missing state", "memory out of range",
                                      "action outside the protocol"])
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

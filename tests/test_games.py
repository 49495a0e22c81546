from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqdesign.benchmarks import gen_random_game, gen_random_strategy
from eqdesign.games import (
    Game,
    InvalidLassoError,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    make_game,
    mean_payoff,
    payoffs,
    run_profile,
    tabulate,
)

from conftest import constant_strategy, lasso_by_names
from lasso_walks import lasso_from_states
from simulation_oracle import simulate_states


def single_state_game():
    return make_game(
        players=["p1"], actions=["a"], states=["s"], initial="s",
        protocol={"s": {"p1": ["a"]}}, transitions={"s": {("a",): "s"}},
        weights={"p1": {"s": 0}}, global_weights={"s": 0},
    )


class TestTabulate:
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_one_call_per_cell_row_major(self, n_rows, n_cols):
        calls = []

        def cell(m, s):
            calls.append((m, s))
            return m * n_cols + s, (m, s)

        step, out = tabulate(n_rows, n_cols, cell)
        assert calls == [(m, s) for m in range(n_rows) for s in range(n_cols)]
        assert step == tuple(tuple(m * n_cols + s for s in range(n_cols)) for m in range(n_rows))
        assert out == tuple(tuple((m, s) for s in range(n_cols)) for m in range(n_rows))


class TestMeanPayoff:
    def test_zero_weights_any_cycle(self, example1):
        game, _, _ = example1
        lasso = lasso_by_names(game, ["t", "r"])
        assert mean_payoff((0,) * game.n_states, lasso) == 0

    def test_delivery_cycle_in_product(self, example1_products):
        product, _ = example1_products
        names = ["t|q0", "l|q1", "m|q2"]
        lasso = lasso_by_names(product, names)
        assert mean_payoff(product.global_weights, lasso) == Fraction(2, 3)

    def test_a1_four_cycle(self, a1_game):
        lasso = lasso_by_names(a1_game, ["t", "l", "b", "r"])
        assert mean_payoff(a1_game.global_weights, lasso) == Fraction(-1, 4)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
           st.integers(0, 5), st.integers(1, 4))
    def test_rotation_and_repetition_invariance(self, weights, rot, reps):
        # One state per weight, arranged in a single directed ring.
        n = len(weights)
        states = [f"s{k}" for k in range(n)]
        game = make_game(
            players=["p1"], actions=["a"], states=states, initial="s0",
            protocol={s: {"p1": ["a"]} for s in states},
            transitions={states[k]: {("a",): states[(k + 1) % n]} for k in range(n)},
            weights={"p1": {states[k]: weights[k] for k in range(n)}},
            global_weights={s: 0 for s in states},
        )
        rot %= n
        base = lasso_from_states(game, list(range(n)), 0)
        rotated = lasso_from_states(game, [(k + rot) % n for k in range(n)], 0)
        repeated = lasso_from_states(game, [k % n for k in range(n * reps)], 0)
        w = game.weights[0]
        assert mean_payoff(w, base) == mean_payoff(w, rotated)
        assert mean_payoff(w, base) == mean_payoff(w, repeated)

    @given(st.integers(1, 7), st.integers(0, 40))
    def test_scaling_one_player_scales_payoff(self, c, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        profile = StrategyProfile(
            (0, 1),
            (gen_random_strategy(game, 0, seed), gen_random_strategy(game, 1, seed + 1)),
        )
        lasso = run_profile(game, profile)
        scaled = Game(
            player_names=game.player_names,
            action_names=game.action_names,
            state_names=game.state_names,
            arena=game.arena,
            weights=(tuple(c * w for w in game.weights[0]), game.weights[1]),
            global_weights=game.global_weights,
        )
        assert mean_payoff(scaled.weights[0], lasso) == c * mean_payoff(game.weights[0], lasso)
        assert mean_payoff(scaled.weights[1], lasso) == mean_payoff(game.weights[1], lasso)


class TestRunProfile:
    def test_single_state_game(self):
        game = single_state_game()
        profile = StrategyProfile((0,), (constant_strategy(game, 0),))
        lasso = run_profile(game, profile)
        assert lasso.prefix_states == ()
        assert lasso.cycle_states == (0,)

    def test_example1_ping_pong(self, example1):
        game, _, _ = example1
        sid = {n: i for i, n in enumerate(game.state_names)}
        aid = {n: i for i, n in enumerate(game.action_names)}
        acts = [aid["go_t"]] * game.n_states
        acts[sid["t"]] = aid["go_r"]
        strat = MealyStrategy(1, 0, ((0,) * game.n_states,), (tuple(acts),))
        lasso = run_profile(game, StrategyProfile((0,), (strat,)))
        assert [game.state_names[s] for s in lasso.cycle_states] == ["t", "r"]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_step_by_step_simulation(self, seed):
        """Two and three players, strategies of 1-3 memory states."""
        for n_players in (2, 3):
            game = gen_random_game(seed, n_players=n_players, n_states=3)
            for n_memory in (1, 2, 3):
                seeds = (seed, ~seed, seed + 5)
                profile = StrategyProfile(tuple(range(n_players)), tuple(
                    gen_random_strategy(game, i, seeds[i], n_memory) for i in range(n_players)))
                lasso = run_profile(game, profile)
                lasso.validate(game)
                horizon = len(lasso) + 10 * len(lasso.cycle_states)
                transcript = simulate_states(game, profile, horizon)
                expected = list(lasso.prefix_states)
                while len(expected) < horizon:
                    expected.extend(lasso.cycle_states)
                assert transcript == expected[:horizon]

    @pytest.mark.parametrize("seed", range(8))
    def test_payoffs_equal_long_window_average(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=4)
        profile = StrategyProfile(
            (0, 1),
            (gen_random_strategy(game, 0, seed), gen_random_strategy(game, 1, seed + 99)),
        )
        lasso = run_profile(game, profile)
        per, glob = payoffs(game, lasso)
        pre, cyc = len(lasso.prefix_states), len(lasso.cycle_states)
        window = simulate_states(game, profile, pre + 10 * cyc)[pre:]
        for i in range(game.n_players):
            avg = Fraction(sum(game.weights[i][s] for s in window), len(window))
            assert avg == per[i]
        assert Fraction(sum(game.global_weights[s] for s in window), len(window)) == glob


class TestPayoffs:
    def test_example1_ping_pong_cycle(self, example1):
        game, _, _ = example1
        per, glob = payoffs(game, lasso_by_names(game, ["t", "r"]))
        assert per == (Fraction(0),)
        assert glob == 0

    def test_example1_delivery_cycle(self, example1):
        game, _, _ = example1
        per, glob = payoffs(game, lasso_by_names(game, ["t", "l", "m"]))
        assert glob == 1

    def test_all_zero_game(self):
        game = single_state_game()
        per, glob = payoffs(game, lasso_from_states(game, [0], 0))
        assert per == (0,) and glob == 0


class TestLassoValidation:
    def test_inconsistent_step_rejected(self, example1):
        game, _, _ = example1
        sid = {n: i for i, n in enumerate(game.state_names)}
        aid = {n: i for i, n in enumerate(game.action_names)}
        bad = Lasso((), (sid["t"], sid["m"]), (), ((aid["go_l"],), (aid["go_t"],)))
        with pytest.raises(InvalidLassoError):
            bad.validate(game)

    def test_empty_cycle_rejected(self):
        with pytest.raises(InvalidLassoError):
            Lasso((), (), (), ())

    def test_disallowed_action_rejected(self, example1):
        game, _, _ = example1
        sid = {n: i for i, n in enumerate(game.state_names)}
        aid = {n: i for i, n in enumerate(game.action_names)}
        bad = Lasso((), (sid["m"],), (), ((aid["go_l"],),))
        with pytest.raises(InvalidLassoError):
            bad.validate(game)

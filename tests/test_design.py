import math
from fractions import Fraction

import pytest

import eqdesign.design
import eqdesign.equilibria
from eqdesign.auxiliary import build_auxiliary
from eqdesign.benchmarks import gen_random_game
from eqdesign.design import (
    ImprovementQuery,
    algorithm_trace,
    decide_improvement,
    epsilon_best_ne,
    epsilon_worst_ne,
    exact_best_ne,
    exact_worst_ne,
    synthesize_rm,
)
from eqdesign.equilibria import NashLassoSolver
from eqdesign.games import make_game
from eqdesign.rewards import implement, is_beta_rm
from eqdesign.zerosum import SolverLimitError, punishment_values


def single_lasso_game(c: int):
    """Two states forced into one cycle with global mean c."""
    return make_game(
        players=["p1"], actions=["a"], states=["s0", "s1"], initial="s0",
        protocol={"s0": {"p1": ["a"]}, "s1": {"p1": ["a"]}},
        transitions={"s0": {("a",): "s1"}, "s1": {("a",): "s0"}},
        weights={"p1": {"s0": 0, "s1": 0}},
        global_weights={"s0": c, "s1": c},
    )


class TestEpsilonWorst:
    def test_example1_quarter_trace(self, example1):
        game, _, _ = example1
        assert epsilon_worst_ne(game, Fraction(1, 4)) == Fraction(1, 8)
        trace = algorithm_trace(game, Fraction(1, 4))
        assert trace.iterations == 4

    def test_single_lasso_game_within_epsilon(self):
        game = single_lasso_game(3)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            v = epsilon_worst_ne(game, eps)
            assert 3 <= v < 3 + eps

    def test_empty_equilibrium_set_returns_min_weight(self, pennies_game):
        assert epsilon_worst_ne(pennies_game, Fraction(1, 2)) == 0
        assert epsilon_best_ne(pennies_game, Fraction(1, 2)) == 0

    def test_rejects_nonpositive_epsilon(self, example1):
        game, _, _ = example1
        with pytest.raises(ValueError):
            epsilon_worst_ne(game, Fraction(0))

    @pytest.mark.parametrize("seed", range(10))
    def test_halving_epsilon_never_increases_worst(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        eps = Fraction(1, 2)
        coarse = epsilon_worst_ne(game, eps)
        fine = epsilon_worst_ne(game, eps / 2)
        assert fine <= coarse

    @pytest.mark.parametrize("seed", range(10))
    def test_bracketing_against_exact_value(self, seed):
        game = gen_random_game(seed + 700, n_players=2, n_states=3)
        witness = exact_worst_ne(game)
        eps = Fraction(1, 3)
        approx = epsilon_worst_ne(game, eps)
        if witness is None:
            assert approx == min(game.global_weights)
        else:
            assert witness.global_payoff <= approx < witness.global_payoff + eps


class TestEpsilonBest:
    def test_example1_close_to_one(self, example1):
        game, _, _ = example1
        for eps in (Fraction(1, 4), Fraction(1, 10)):
            v = epsilon_best_ne(game, eps)
            assert 1 - eps < v <= 1

    def test_single_lasso_game(self):
        game = single_lasso_game(-2)
        v = epsilon_best_ne(game, Fraction(1, 5))
        assert -2 - Fraction(1, 5) < v <= -2

    def test_auxiliary_designer_fixed_close_to_one(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        v = epsilon_best_ne(aux.game, Fraction(1, 4), fixed0=True)
        assert 1 - Fraction(1, 4) < v <= 1


class TestIterationContract:
    @pytest.mark.parametrize("seed", range(20))
    def test_iteration_count_formula(self, seed):
        """One halving per loop pass: ceil(log2(range / epsilon)) passes
        whenever the ratio is not an exact power of two."""
        game = gen_random_game(seed + 40, n_players=2, n_states=3)
        span = max(game.global_weights) - min(game.global_weights)
        if span == 0:
            pytest.skip("degenerate weight range")
        trace0 = algorithm_trace(game, Fraction(span))
        if not trace0.ne_exists:
            pytest.skip("no equilibrium; search short-circuits")
        eps = Fraction(span, 5)  # ratio 5: never a power of two
        trace = algorithm_trace(game, eps)
        assert trace.iterations == math.ceil(math.log2(span / eps))


class TestDecideImprovement:
    def test_example1_strong_certify(self, example1):
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10))
        ans = decide_improvement(game, q)
        assert ans.decision
        assert ans.witness_rm is not None
        assert is_beta_rm(ans.witness_rm, 1)
        product = implement(game, ans.witness_rm)
        worst = exact_worst_ne(product).global_payoff
        assert worst >= Fraction(2, 3) - Fraction(1, 10)

    def test_zero_budget_cannot_improve(self, example1):
        game, _, _ = example1
        for delta in (Fraction(0), Fraction(1, 4)):
            q = ImprovementQuery(budget=0, delta=delta, epsilon=Fraction(1, 10))
            assert not decide_improvement(game, q).decision

    def test_example1_weak_paper_says_no(self, example1):
        """The best value is already the best cycle mean; rewards only
        subtract from the designer weight."""
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2),
                             epsilon=Fraction(1, 10), mode="weak", method="paper")
        ans = decide_improvement(game, q)
        assert not ans.decision

    def test_strong_paper_documents_wasteful_designer(self, example1):
        """The verbatim three-step procedure quantifies over wasteful
        designer strategies too, so its strong answer on the running
        example is 'no' even though a certified witness exists."""
        game, _, _ = example1
        q_paper = ImprovementQuery(budget=1, delta=Fraction(1, 2),
                                   epsilon=Fraction(1, 10), method="paper")
        q_certify = ImprovementQuery(budget=1, delta=Fraction(1, 2),
                                     epsilon=Fraction(1, 10), method="certify")
        assert not decide_improvement(game, q_paper).decision
        assert decide_improvement(game, q_certify).decision


class TestPunishmentReuse:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("two_players", [False, True])
    def test_each_solve_once_per_decision(self, example1, mode, two_players,
                                          monkeypatch):
        """A decision solves each distinct (arena, player, weight row) once,
        and keeps nothing for the next decision, which solves them again.
        In the two-player game a unit subsidy leaves the other player's
        punishment unchanged: 38 distinct solves, 64 without sharing."""
        calls = []

        def counting(game, player):
            calls.append((game.protocol, frozenset(game.transitions.items()),
                          player, game.weights[player]))
            return punishment_values(game, player)

        monkeypatch.setattr(eqdesign.design, "punishment_values", counting)
        monkeypatch.setattr(eqdesign.equilibria, "punishment_values", counting)
        game = gen_random_game(1, 2, 3) if two_players else example1[0]
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        runs = []
        for _ in range(2):
            calls.clear()
            decide_improvement(game, q)
            assert calls and len(calls) == len(set(calls))
            runs.append(list(calls))
        assert runs[0] == runs[1]


class TestSynthesizeRm:
    def test_witness_reverifies_within_epsilon(self, example1):
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10))
        ans = decide_improvement(game, q)
        rm = synthesize_rm(game, q)
        assert rm.canonical_key() == ans.witness_rm.canonical_key()
        product = implement(game, rm)
        v = epsilon_worst_ne(product, q.epsilon)
        assert v == ans.improved_value

    def test_no_witness_raises(self, example1):
        game, _, _ = example1
        q = ImprovementQuery(budget=0, delta=Fraction(1), epsilon=Fraction(1, 2))
        with pytest.raises(SolverLimitError):
            synthesize_rm(game, q)

    def test_zero_vector_witness_is_payoff_identity(self, example1):
        from eqdesign.design import replay_strategy
        from eqdesign.auxiliary import strategy_to_rm
        from eqdesign.games import lasso_from_states

        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        zero_vi = aux.vector_index((0,))
        t, r = game.state_names.index("t"), game.state_names.index("r")
        cycle = [aux.state_id(t, zero_vi), aux.state_id(r, zero_vi)]
        rm = strategy_to_rm(aux, replay_strategy(
            aux, lasso_from_states(aux.game, cycle, 0)))
        assert rm.max_norm() == 0
        product = implement(game, rm)
        assert exact_worst_ne(product).global_payoff == exact_worst_ne(game).global_payoff
        assert exact_best_ne(product).global_payoff == exact_best_ne(game).global_payoff

    def test_six_step_replay_matches_two_cycle_machine(self, example1):
        """Replaying (0),(0),(0),(0),(0),(1) along two delivery loops is
        reward-equivalent to the two-cycle machine: product worst 5/6."""
        from eqdesign.design import replay_strategy
        from eqdesign.auxiliary import strategy_to_rm
        from eqdesign.games import lasso_from_states

        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        zero_vi, one_vi = aux.vector_index((0,)), aux.vector_index((1,))
        t, l, m = (game.state_names.index(x) for x in ("t", "l", "m"))
        cycle = [
            aux.state_id(t, zero_vi), aux.state_id(l, zero_vi),
            aux.state_id(m, zero_vi), aux.state_id(t, zero_vi),
            aux.state_id(l, zero_vi), aux.state_id(m, one_vi),
        ]
        # The duplicate (t, zero) entry would fold the cycle early; unroll
        # by hand instead of through lasso_from_states.
        from eqdesign.games import Lasso

        moves = []
        for k, x in enumerate(cycle):
            nxt = cycle[(k + 1) % 6]
            for joint in aux.game.joint_actions(x):
                if aux.game.transitions[(x, joint)] == nxt:
                    moves.append(joint)
                    break
        lasso = Lasso((), tuple(cycle), (), tuple(moves))
        rm = strategy_to_rm(aux, replay_strategy(aux, lasso))
        product = implement(game, rm)
        assert exact_worst_ne(product).global_payoff == Fraction(5, 6)


class TestWorstValueContract:
    @pytest.mark.parametrize("seed", range(8))
    def test_value_brackets_equilibrium_set(self, seed):
        """Some equilibrium sits at or below the returned value and none
        sits below value - epsilon."""
        game = gen_random_game(seed + 900, n_players=2, n_states=3)
        solver = NashLassoSolver(game)
        values = solver.global_values()
        if not values:
            pytest.skip("no equilibrium")
        eps = Fraction(1, 4)
        a = epsilon_worst_ne(game, eps)
        assert any(v <= a for v in values)
        assert all(v > a - eps for v in values)

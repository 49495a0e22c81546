import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqdesign.design
import eqdesign.equilibria
import eqdesign.games
from eqdesign.auxiliary import build_auxiliary, machine_state_vectors, strategy_to_rm
from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_random_game,
    gen_random_rm,
)
from eqdesign.design import (
    AUX_CANDIDATE_STATE_LIMIT,
    MAX_LASSO_CANDIDATES,
    ImprovementQuery,
    _candidates,
    _lasso_candidates,
    _search,
    algorithm_trace,
    decide_improvement,
    epsilon_best_ne,
    epsilon_worst_ne,
    exact_best_ne,
    exact_worst_ne,
    replay_machine,
    synthesize_rm,
)
from eqdesign.equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    SolverMemo,
    ThresholdQuery,
    is_ne_outcome,
)
from eqdesign.games import _arena_tables, make_game
from eqdesign.rewards import RewardMachine, implement, is_beta_rm, zero_rm
from eqdesign.zerosum import SolverLimitError, punishment_values

from candidate_oracle import (
    exact_extremes,
    extreme_value,
    full_candidates,
    replay_strategy,
    unbounded_decision,
)
from max_mean_oracle import brute_force_max_mean
from memoryless_oracle import memoryless_equilibrium_values
from sweep_oracle import bisect_search


def one_state_paying(game, q) -> list:
    """Certify's subsidy schemes, in order: its one-state machines, all paying."""
    return [rm for rm in _candidates(game, q) if rm.n_states == 1]


def product_key(product) -> tuple:
    """A product by the contents of its arena and its weight tables."""
    arena = product.arena
    return (arena.initial, arena.protocol, tuple(sorted(arena.transitions.items())),
            product.weights, product.global_weights)


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

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, "1/10"])
    def test_rejects_inexact_epsilon(self, example1, bad):
        # A float would be searched as its binary expansion, not as written.
        game = example1[0]
        for search in (epsilon_worst_ne, epsilon_best_ne, algorithm_trace):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                search(game, bad)
        assert epsilon_worst_ne(game, 1) == epsilon_worst_ne(game, Fraction(1))

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
            reach = game.arena.reachable_states()
            assert approx == min(game.global_weights[s] for s in reach)
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


class TestExtremeProbes:
    """The oracle search reads only the extreme signature: every probe window
    has the extreme's side of the bracket as one edge.  It returns that
    signature with its result."""

    @settings(deadline=None, max_examples=120)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([None, 0]), st.booleans(),
           st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)]),
           st.sampled_from([(-2, 2), (-5, 7)]))
    def test_matches_bisecting_reference(self, seed, n_players, n_states, fixed, maximize,
                                         epsilon, weights):
        game = gen_random_game(seed, n_players, n_states, weight_range=weights)
        solver = NashLassoSolver(game, fixed, bound=5)
        got, rec = _search(solver, epsilon, maximize, "oracle")
        assert got == bisect_search(solver, epsilon, maximize)
        assert rec == solver.extreme_signature(maximize)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_no_equilibrium(self, pennies_game, maximize):
        solver = NashLassoSolver(pennies_game)
        got, rec = _search(solver, Fraction(1, 8), maximize, "oracle")
        assert got == bisect_search(solver, Fraction(1, 8), maximize)
        assert not got.ne_exists and rec is None


class TestLpSearch:
    """The LP binary search against the bounded oracle's: the LP has no
    length bound, so it finds every equilibrium the oracle does and may
    reach further, while both run the same number of halvings.  The LP
    search returns no signature."""

    @pytest.mark.parametrize("case", ["example1", *range(30)], ids=str)
    def test_matches_or_extends_the_oracle(self, case):
        if case == "example1":
            game, bound = gen_example1()[0], 12
        else:
            game, bound = gen_random_game(case, 2, 2 + case % 3, 2), 6
        for fixed in (None, 0):
            solver = NashLassoSolver(game, fixed, bound)
            for maximize in (False, True):
                for eps in (Fraction(1), Fraction(1, 8)):
                    want, _ = _search(solver, eps, maximize, "oracle")
                    got, rec = _search(solver, eps, maximize, "lp")
                    assert rec is None and got.iterations == want.iterations
                    assert got.ne_exists or not want.ne_exists
                    if maximize:
                        assert got.value >= want.value
                    else:
                        assert got.value <= want.value


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

    def test_certify_yes_passes_the_certificate(self, example1, monkeypatch):
        """The witness lasso of a "yes" returns through the exact
        best-response certificate; when it fails, the answer is a refusal."""
        def failing(solver, lasso):
            raise SolverLimitError("grim profile failed its exact best-response certificate")

        monkeypatch.setattr(NashLassoSolver, "_certify", failing)
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10))
        with pytest.raises(SolverLimitError, match="certificate"):
            decide_improvement(game, q)

    def test_paper_witness_passes_the_certificate(self, example1, monkeypatch):
        """Paper mode's witness lasso is certified on the auxiliary game, as
        certify's is on the product; when the certificate fails, the answer
        is a refusal."""
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(-2), epsilon=Fraction(1, 10),
                             method="paper")
        ans = decide_improvement(game, q)
        assert ans.decision and ans.witness_game.n_states == build_auxiliary(game, 1).game.n_states
        assert is_ne_outcome(ans.witness_game, ans.witness_lasso, 0)

        def failing(solver, lasso):
            raise SolverLimitError("grim profile failed its exact best-response certificate")

        monkeypatch.setattr(NashLassoSolver, "_certify", failing)
        with pytest.raises(SolverLimitError, match="certificate"):
            decide_improvement(game, q)

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


class TestImprovementQuery:
    @pytest.mark.parametrize("field", ["delta", "epsilon"])
    @pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/2"])
    def test_inexact_parameters_rejected(self, field, bad):
        values = {"delta": Fraction(1, 2), "epsilon": Fraction(1, 10), field: bad}
        with pytest.raises(ValueError, match=f"{field} .* not an int or a Fraction"):
            ImprovementQuery(budget=1, **values)

    # Each case was accepted and reinterpreted, or crashed deep inside.
    @pytest.mark.parametrize("values,match", [
        ({"budget": True}, "budget"),
        ({"budget": 1.5}, "budget"),
        ({"bound": 0}, "length bound"),
        ({"bound": True}, "length bound"),
        ({"bound": 12.0}, "length bound"),
    ], ids=["budget-true", "budget-float", "bound-zero", "bound-true", "bound-float"])
    def test_non_int_budget_and_bound_refused(self, values, match):
        with pytest.raises(ValueError, match=match):
            ImprovementQuery(**{"budget": 1, "delta": Fraction(1, 2),
                                "epsilon": Fraction(1, 10), **values})

    def test_exact_extreme_refuses_float_bound(self, example1):
        with pytest.raises(ValueError, match="length bound"):
            exact_worst_ne(example1[0], bound=3.0)

    def test_ints_and_fractions_accepted(self):
        q = ImprovementQuery(budget=1, delta=0, epsilon=1)
        assert (q.delta, q.epsilon) == (0, 1)
        ImprovementQuery(budget=1, delta=Fraction(-1, 3), epsilon=Fraction(1, 7))


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


class TestStructureReuse:
    @staticmethod
    def structure_key(game, pun):
        """Arena and, per player, its punishment ranks; None for the fixed
        player."""
        return (game.arena, tuple(pun[i].ranks if i in pun else None
                                  for i in range(game.n_players)))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("two_players", [False, True])
    def test_each_structure_once_per_decision(self, example1, mode, two_players,
                                              monkeypatch):
        """A decision builds each distinct (arena, fixed player, punishment
        ranks) structure once, and keeps nothing for the next decision,
        which builds them again."""
        built, solvers = [], []
        build, init = eqdesign.equilibria._build_classes, NashLassoSolver.__init__

        def counting_build(arena, rank):
            built.append((arena, rank))
            return build(arena, rank)

        def counting_init(solver, *args, **kwargs):
            solvers.append(solver)
            init(solver, *args, **kwargs)

        monkeypatch.setattr(eqdesign.equilibria, "_build_classes", counting_build)
        monkeypatch.setattr(NashLassoSolver, "__init__", counting_init)
        game = gen_random_game(1, 2, 3) if two_players else example1[0]
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        runs = []
        for _ in range(2):
            built.clear()
            solvers.clear()
            decide_improvement(game, q)
            assert built and len(built) == len(set(built))
            assert set(built) == {self.structure_key(solver.game, solver.pun)
                                  for solver in solvers}
            # The auxiliary arena is built anew by each decision: compare contents.
            runs.append([(arena.protocol, arena.transitions, *rest)
                         for arena, *rest in built])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed,n_players", [(0, 2), (1, 2), (2, 3), (5, 2)])
    def test_shared_structure_answers_as_a_fresh_solver(self, seed, n_players):
        """Solvers of one decision's subsidy products, built through its memo,
        answer every query as solvers built alone: signatures, top
        signatures, realized lassos, LP feasibility and LP witnesses."""
        game = gen_random_game(seed, n_players, 3)
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        free = ThresholdQuery((NEG_INF,) * n_players, (POS_INF,) * n_players)

        def answers(solver):
            sigs = solver.signatures()
            windows = [free] + [dataclasses.replace(free, global_lower=Fraction(s[-1], n))
                                for _, _, n, s, _ in sigs[::3]]
            try:
                witness = solver.lp_witness(free)
            except SolverLimitError as exc:
                witness = str(exc)
            return (sigs, solver.signatures(top=3), [solver.realize(rec) for rec in sigs],
                    [solver.lp_feasible(w) for w in windows], witness)

        memo = SolverMemo()
        first: dict = {}  # structure key -> the solver that built it
        schemes = one_state_paying(game, q)
        for rm in schemes:
            product = implement(game, rm)
            solver = NashLassoSolver(product, None, 6, memo)
            key = self.structure_key(product, solver.pun)
            assert solver._ceilings is first.setdefault(key, solver)._ceilings
            fresh = NashLassoSolver(product, None, 6)
            assert solver.pun == fresh.pun
            assert answers(solver) == answers(fresh)
        # Most products take a structure an earlier one built.
        assert 2 * len(first) < len(schemes)


class TestOneSolverPerGame:
    """A decision builds one solver per game it searches; the witness lasso
    comes from the solver that found the value.  Paper mode searches the
    base and auxiliary games.  Certify's first solver is the baseline's, on
    the product of the machine paying nothing, never on the base game
    itself; then come the auxiliary game's and each candidate product's.
    When the base game's largest reachable cycle mean is at most the
    threshold, the baseline's solver is the only one."""

    @staticmethod
    def count(monkeypatch):
        built, tried = [], []

        class Counting(NashLassoSolver):
            def __init__(self, game, *args, **kwargs):
                built.append(game)
                super().__init__(game, *args, **kwargs)

        def counting_implement(game, rm):
            product = implement(game, rm)
            tried.append(product)
            return product

        monkeypatch.setattr(eqdesign.design, "NashLassoSolver", Counting)
        monkeypatch.setattr(eqdesign.design, "implement", counting_implement)
        return built, tried

    @staticmethod
    def split(built, tried):
        """The auxiliary game among the games ``built`` after the baseline's
        product, or None when none was built, and the candidate products
        given a solver.  The baseline's product is the first product tried
        and the first game solved; the auxiliary game comes right after."""
        assert built[0] is tried[0]
        k = next((k for k, g in enumerate(built) if g.player_names[0] == "agent0"), None)
        if k is None:
            return None, built[1:]
        assert k == 1
        solved = built[2:]
        assert all(g.player_names[0] != "agent0" for g in solved)
        return built[1], solved

    # n_tried counts the baseline's product and the candidate products.
    @pytest.mark.parametrize("seed,mode,delta,decision,n_tried", [
        pytest.param(None, "strong", Fraction(1, 2), True, 2, id="strong"),
        pytest.param(3, "strong", Fraction(0), False, 19, id="seed3-strong"),
        pytest.param(3, "weak", Fraction(0), False, 19, id="seed3-weak"),
        pytest.param(3, "strong", Fraction(1, 2), False, 19, id="seed3-strong-half"),
        # example1's largest reachable cycle mean is 1, at most the threshold:
        # 0 + 2 in strong mode, 1 + 1/2 in weak mode.  No candidate is tried.
        pytest.param(None, "strong", Fraction(2), False, 1, id="strong-delta2"),
        pytest.param(None, "weak", Fraction(1, 2), False, 1, id="weak"),
    ])
    def test_certify(self, example1, seed, mode, delta, decision, n_tried, monkeypatch):
        built, tried = self.count(monkeypatch)
        game = example1[0] if seed is None else gen_random_game(seed, 2, 2)
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        ans = decide_improvement(game, q)
        assert ans.decision == decision and len(tried) == n_tried
        # The first solver is on the product of the machine paying nothing.
        assert built[0].arena is implement(game, zero_rm(game)).arena is not game.arena
        aux, solved = self.split(built, tried)
        if n_tried == 1:
            assert aux is None and built == tried
            return
        # Every product tried gets a solver.
        assert aux.n_states == build_auxiliary(game, 1).game.n_states
        assert solved == tried[1:]

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-2)])
    def test_paper(self, example1, delta, monkeypatch):
        built, tried = self.count(monkeypatch)
        game = example1[0]
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10),
                             method="paper")
        ans = decide_improvement(game, q)
        assert (ans.witness_lasso is not None) == ans.decision == (delta < 0)
        assert len(built) == 2 and built[0] is game and not tried

    @pytest.mark.parametrize("method", ["certify", "paper"])
    def test_witness_from_its_own_search(self, example1, method, monkeypatch):
        """A "yes" realizes its witness from the extreme signature its search
        read: one extreme sweep on the solver it witnesses from."""
        swept = []
        extreme = NashLassoSolver.extreme_signature

        def counting(solver, maximize=False):
            swept.append(solver.game)
            return extreme(solver, maximize)

        monkeypatch.setattr(NashLassoSolver, "extreme_signature", counting)
        delta = Fraction(1, 2) if method == "certify" else Fraction(-2)
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10), method=method)
        ans = decide_improvement(example1[0], q)
        assert ans.decision and ans.witness_lasso is not None
        assert sum(g is ans.witness_game for g in swept) == 1

    def test_weak_yes_builds_no_subsidy_scheme(self, monkeypatch):
        """Subsidy schemes are built when tried: the criterion-5 weak "yes"
        on the fork's complement is won by a replay machine, first."""
        schemes = []
        build = eqdesign.design.from_subsidy_scheme

        def counting(game, kappa):
            schemes.append(kappa)
            return build(game, kappa)

        monkeypatch.setattr(eqdesign.design, "from_subsidy_scheme", counting)
        game = gen_hamiltonian_complement_game(TestFlooredCandidates.WITHOUT)
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1), mode="weak")
        ans = decide_improvement(game, q)
        assert ans.decision and ans.witness_rm.n_states > 1 and not schemes


class TestArenaSharing:
    """The products of the machine paying nothing and of every subsidy scheme
    of a game are on one arena object, and
    each arena's tables (its deviation moves and every player's response
    classes, from one pass) are built at most once, however many games share
    it: for the baseline's product, whose arena every subsidy scheme shares,
    the auxiliary game and each replay product tried.  The base game's own
    arena is never tabled.  When the base game's largest reachable cycle
    mean decides, only the baseline's product's tables are built."""

    @pytest.mark.parametrize("seed,mode,delta,n_tried,n_arenas", [
        # Example 1's largest reachable cycle mean, 1, is at most 0 + 10 and
        # 1 + 10: no auxiliary game and no candidate product is built.
        pytest.param(None, "strong", Fraction(10), 1, 1, id="strong"),
        pytest.param(None, "weak", Fraction(10), 1, 1, id="weak"),
        # 16 products on 5 arenas, the machine paying nothing and 10 subsidy
        # schemes on one, 5 paying replays on the other 4; none wins, the
        # best, 11/12, lying on the threshold.
        pytest.param(None, "strong", Fraction(11, 12), 16, 5, id="strong-all"),
        pytest.param(3, "strong", Fraction(0), 19, 11, id="seed3-strong"),
        pytest.param(3, "weak", Fraction(0), 19, 11, id="seed3-weak"),
    ])
    def test_certify(self, seed, mode, delta, n_tried, n_arenas, monkeypatch):
        built = []

        def counting_tables(arena):
            built.append(arena)
            return _arena_tables(arena)

        # Fresh, so no tables come from other tests.
        game = gen_example1()[0] if seed is None else gen_random_game(seed, 2, 2)
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        # Listed before counting: this builds an auxiliary game and its solver.
        n_subsidy = len(one_state_paying(game, q))
        monkeypatch.setattr(eqdesign.games, "_arena_tables", counting_tables)
        searched, tried = TestOneSolverPerGame.count(monkeypatch)
        assert not decide_improvement(game, q).decision
        aux, solved = TestOneSolverPerGame.split(searched, tried)
        arenas = {id(product.arena): product.arena for product in tried}
        assert len(tried) == n_tried and len(arenas) == n_arenas and solved == tried[1:]
        assert all(a is not game.arena for a in built)
        if n_tried == 1:
            assert aux is None and built == [tried[0].arena]
            return
        subsidy = [product.arena for product in (tried[0], *tried[-n_subsidy:])]
        assert all(a is subsidy[0] for a in subsidy)
        # The auxiliary game and each product's arena: once each.
        want = {id(aux.arena), *arenas}
        assert len(built) == len(want) == 1 + n_arenas and {id(a) for a in built} == want


def answer_key(ans) -> tuple:
    """An answer's fields, its machine by canonical key and its product by
    arena and tables: products are built anew by each decision."""
    g = ans.witness_game
    return (ans.decision, ans.baseline_value, ans.improved_value,
            None if ans.witness_rm is None else ans.witness_rm.canonical_key(),
            ans.witness_lasso,
            None if g is None else (g.arena, g.state_names, g.weights, g.global_weights),
            ans.method, ans.mode)


def assert_answers_as_reference(ans, ref, q: ImprovementQuery) -> None:
    """``ans`` is the exhaustive reference's answer ``ref``, but for a weak
    "yes": the early exit certifies the first signature of the winner worth
    more than the threshold, so its value lies above the threshold and at
    most at the winner's best extreme, the reference's value."""
    if not (ans.decision and ans.mode == "weak" and ans.witness_lasso is not None):
        assert answer_key(ans) == answer_key(ref)
        return
    assert answer_key(dataclasses.replace(ans, improved_value=None, witness_lasso=None)) == (
        answer_key(dataclasses.replace(ref, improved_value=None, witness_lasso=None)))
    assert ans.baseline_value + q.delta < ans.improved_value <= ref.improved_value
    game = ans.witness_game
    assert eqdesign.games.mean_payoff(game.global_weights, ans.witness_lasso) == (
        ans.improved_value)
    assert is_ne_outcome(game, ans.witness_lasso)


class TestCandidateBound:
    """Certify's early-exit decision is that of the exhaustive reference,
    which solves every candidate to its exact extreme: answering "no" with
    no candidate tried when the base game's largest reachable cycle mean is
    at most the threshold, and stopping each sweep at its first deciding
    signature, changes no answer.  Certify's answer does not depend on
    ``epsilon``."""

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("seed,n_players,n_states",
                             [(None, 1, 4), (0, 2, 2), (0, 2, 3), (1, 2, 2), (3, 2, 3),
                              (0, 3, 2)])
    def test_answers_as_the_unbounded_loop(self, seed, n_players, n_states, mode):
        game = (gen_example1()[0] if seed is None
                else gen_random_game(seed, n_players, n_states, 2))
        q = ImprovementQuery(budget=1, delta=Fraction(0), epsilon=Fraction(1), mode=mode)
        extremes = exact_extremes(game, q)
        for delta in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)):
            q = dataclasses.replace(q, delta=delta)
            ref = unbounded_decision(game, q, extremes)
            for epsilon in (Fraction(1, 8), Fraction(1)):
                ans = decide_improvement(game, dataclasses.replace(q, epsilon=epsilon))
                assert_answers_as_reference(ans, ref, q)

    @pytest.mark.parametrize("make,mode", [(gen_hamiltonian_game, "strong"),
                                           (gen_hamiltonian_complement_game, "weak")])
    @pytest.mark.parametrize("graph", ["WITH", "WITHOUT"])
    def test_criterion_5_decisions(self, make, mode, graph):
        game = make(getattr(TestFlooredCandidates, graph))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1), mode=mode)
        ans = decide_improvement(game, q)
        # Strong improves exactly with a Hamiltonian cycle, weak exactly without.
        assert ans.decision == ((graph == "WITH") == (mode == "strong"))
        assert_answers_as_reference(ans, unbounded_decision(game, q), q)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.sampled_from(["strong", "weak"]),
           st.data())
    def test_early_exit_decides_as_the_reference(self, seed, n_states, mode, data):
        """On seeded two-player games, at deltas that put some candidate's
        extreme exactly on the threshold, a candidate wins only strictly
        above it: at most ``b + delta`` loses in strong mode, and only a
        signature worth more wins in weak mode."""
        game = gen_random_game(seed, 2, n_states, 2)
        q = ImprovementQuery(budget=1, delta=Fraction(0), epsilon=Fraction(1), mode=mode,
                             bound=6)
        extremes = exact_extremes(game, q)
        baseline, solved = extremes
        values = sorted({extreme_value(solver, rec) for _, solver, rec in solved})
        # At the greatest extreme no candidate clears the threshold.
        for on_threshold in (values[-1], data.draw(st.sampled_from(values)), None):
            delta = Fraction(1, 2) if on_threshold is None else on_threshold - baseline
            q = dataclasses.replace(q, delta=delta)
            assert_answers_as_reference(decide_improvement(game, q),
                                        unbounded_decision(game, q, extremes), q)

    def test_k4_weak_no_builds_no_product_solver(self, monkeypatch):
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = gen_hamiltonian_complement_game(complete_digraph(4))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1), mode="weak")
        ans = decide_improvement(game, q)
        assert (ans.decision, ans.baseline_value, ans.improved_value) == (
            False, Fraction(4), Fraction(4))
        # The base game's largest reachable cycle mean is at most 4 + 1/2:
        # none of the 3,870 subsidy schemes is tried, and the one product
        # solved is the baseline's.
        assert len(tried) == 1 and built == tried


class TestBaseGameBound:
    """No product of any machine has an equilibrium worth more than the base
    game's largest reachable cycle mean, so certify answers "no" from it
    alone when it is at most the threshold."""

    @staticmethod
    def base_bound(game) -> Fraction:
        """The largest mean of a simple cycle reachable from the initial
        state, by brute force over the transition table."""
        succs = [set() for _ in range(game.n_states)]
        for (s, _), t in game.transitions.items():
            succs[s].add(t)
        return brute_force_max_mean([sorted(ts) for ts in succs],
                                    game.global_weights)[game.initial]

    @pytest.mark.parametrize("make,graph,mode", [
        (gen_hamiltonian_game, "WITHOUT", "strong"),
        (gen_hamiltonian_complement_game, "WITH", "weak"),
        (gen_hamiltonian_complement_game, "K4", "weak"),
    ])
    def test_no_from_the_bound_builds_nothing(self, make, graph, mode, monkeypatch):
        """The criterion-5 "no" answers, and K4's weak one, whose auxiliary
        game has 105 states and is never built."""
        auxiliary = []
        monkeypatch.setattr(eqdesign.design, "build_auxiliary",
                            lambda *args: auxiliary.append(args) or build_auxiliary(*args))
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = make(complete_digraph(4) if graph == "K4"
                    else getattr(TestFlooredCandidates, graph))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1), mode=mode)
        ans = decide_improvement(game, q)
        assert not ans.decision and ans.improved_value == ans.baseline_value
        assert self.base_bound(game) <= ans.baseline_value + q.delta
        assert not auxiliary and len(tried) == 1 and built == tried

    def test_bound_holds_for_random_machines(self):
        """Independent of certify: on seeded games, every product of a seeded
        machine of 1-3 states and budget 1 or 2 has its least global weight
        and its best equilibrium (when one is found) at most the bound, and
        some product's best equilibrium attains it.  Its least global weight
        is also at most the base game's least reachable one, so a product
        with no equilibrium never clears a baseline plus ``delta >= 0``."""
        refused = attained = checked = 0
        games = [gen_random_game(seed, 2, 3, 2) for seed in range(30)]
        games += [gen_random_game(seed, 3, 3, 2) for seed in range(10)]
        for seed, game in enumerate(games):
            bound = self.base_bound(game)
            least = min(game.global_weights[s] for s in game.arena.reachable_states())
            for k in (1, 2, 3):
                for budget in (1, 2):
                    product = implement(game, gen_random_rm(game, seed, k, budget))
                    assert min(product.global_weights) <= bound
                    assert min(product.global_weights) <= least
                    try:
                        best = exact_best_ne(product, bound=8)
                    except SolverLimitError:
                        refused += 1
                        continue
                    checked += 1
                    if best is not None:
                        assert best.global_payoff <= bound
                        attained += best.global_payoff == bound
        assert (checked, refused) == (240, 0) and attained > 0

    def test_seed_17_machine_beats_the_strong_baseline(self):
        """A two-state machine of budget 1 on ``gen_random_game(17, 2, 3, 2)``
        whose product's worst equilibrium is 1, against certify's strong
        baseline 1/3.  The base game's bound, 1, lies above 1/3 + 1/2, so it
        proves nothing here, and certify's strong "no" at delta 1/2 (and 0)
        is the unproved kind: its family holds no such machine, and that
        "no" is wrong."""
        game = gen_random_game(17, 2, 3, 2)
        rm = RewardMachine(("q0", "q1"), 0, ((0, 1, 1), (0, 0, 0)),
                           (((0, 0), (0, 0), (0, 1)), ((0, 0), (0, 1), (1, 0))))
        assert is_beta_rm(rm, 1)
        product = implement(game, rm)
        for bound in (8, 12):
            assert exact_worst_ne(product, bound=bound).global_payoff == 1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        baseline = decide_improvement(game, q).baseline_value
        assert baseline == Fraction(1, 3)
        assert self.base_bound(game) == 1 > baseline + q.delta


class TestExactThreshold:
    """Certify reads one exact, certified baseline and asks each candidate
    an exact threshold question, so ``epsilon`` cannot move its answer and
    a baseline whose witness fails its certificate is refused."""

    @pytest.mark.parametrize("seed,mode,baseline,improved", [
        # With bracketed search values both said "no" at epsilon 1, "yes" at 1/8.
        (16, "strong", Fraction(-1), Fraction(0)),
        (24, "weak", Fraction(-2), Fraction(-1)),
    ])
    def test_epsilon_does_not_move_the_answer(self, seed, mode, baseline, improved):
        game = gen_random_game(seed, 2, 3, 2)
        for epsilon in (Fraction(1), Fraction(1, 8)):
            q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=epsilon, mode=mode)
            ans = decide_improvement(game, q)
            assert (ans.decision, ans.baseline_value, ans.improved_value) == (
                True, baseline, improved)
            extreme = (exact_best_ne if mode == "weak" else exact_worst_ne)(game)
            assert extreme.global_payoff == baseline

    @pytest.mark.parametrize("seed,mode", [
        (32, "strong"), (51, "strong"), (69, "strong"), (75, "strong"), (98, "strong"),
        (87, "weak"),
    ])
    def test_uncertified_baseline_is_refused(self, seed, mode):
        """Three-player games whose base extreme fails its certificate, as
        ``exact_worst_ne`` or ``exact_best_ne`` refuses it."""
        game = gen_random_game(seed, 3, 3, 2)
        extreme = exact_best_ne if mode == "weak" else exact_worst_ne
        with pytest.raises(SolverLimitError, match="certificate"):
            extreme(game, bound=8)
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 8),
                             mode=mode, bound=8)
        with pytest.raises(SolverLimitError, match="certificate"):
            decide_improvement(game, q)

    def test_k4_strong_yes(self, monkeypatch):
        """On the complete digraph of four vertices (15 states, 6 players)
        no candidate is skipped, and the 3,864th, the last, wins with worst
        value 4: one solver for the baseline's product and one per
        candidate, all subsidy schemes, since the 105-state auxiliary game
        is past AUX_CANDIDATE_STATE_LIMIT."""
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = gen_hamiltonian_game(complete_digraph(4))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        ans = decide_improvement(game, q)
        assert (ans.decision, ans.baseline_value, ans.improved_value) == (
            True, Fraction(0), Fraction(4))
        assert len(tried) == 1 + 3864 and ans.witness_game is tried[-1]
        assert built == tried
        assert exact_worst_ne(ans.witness_game).global_payoff == 4


def keys(machines) -> list[tuple]:
    return [rm.canonical_key() for rm in machines]


class TestFlooredCandidates:
    """Certify's lasso candidates read only the signatures above a designer
    floor, and are the machines, in order, of the full-sweep loop."""

    # The criterion-5 graphs: a directed 3-cycle and a fork.
    WITH = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))
    WITHOUT = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3")))

    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        tops = []
        signatures = NashLassoSolver.signatures

        def counting(self, top=None):
            tops.append(top)
            return signatures(self, top)

        monkeypatch.setattr(NashLassoSolver, "signatures", counting)
        return tops

    @staticmethod
    def both(aux, bound=12):
        return (_lasso_candidates(aux, NashLassoSolver(aux.game, 0, bound)),
                full_candidates(aux, NashLassoSolver(aux.game, 0, bound)))

    @pytest.mark.parametrize("make,graph,n_paying", [
        pytest.param(make, graph, n, id=f"{graph}-{make.__name__}")
        for make, graph, n in ((gen_hamiltonian_game, "WITH", 8),
                               (gen_hamiltonian_complement_game, "WITH", 8),
                               (gen_hamiltonian_game, "WITHOUT", 2),
                               (gen_hamiltonian_complement_game, "WITHOUT", 12))])
    def test_criterion_5_auxiliary_games(self, make, graph, n_paying, monkeypatch):
        # Of the MAX_LASSO_CANDIDATES replays, those paying nothing are dropped.
        aux = build_auxiliary(make(getattr(self, graph)), 1)
        tops = self.count_sweeps(monkeypatch)
        floored, full = self.both(aux)
        assert keys(floored) == keys(full) and len(full) == n_paying
        # One floored pass, then the reference's full sweep.
        assert tops == [MAX_LASSO_CANDIDATES, None]

    def test_fork_complement_floor_reaches_the_least_weight(self):
        # The complement game of the fork has 20 signatures in its auxiliary
        # game, and the 12th most valuable (value, length) pair is worth the
        # least global weight: the floored sweep lists every signature.
        aux = build_auxiliary(gen_hamiltonian_complement_game(self.WITHOUT), 1)
        solver = NashLassoSolver(aux.game, 0, 12)
        floored = solver.signatures(top=MAX_LASSO_CANDIDATES)
        full = NashLassoSolver(aux.game, 0, 12).signatures()
        pairs = sorted({(Fraction(rec[3][-1], rec[2]), rec[2]) for rec in full}, reverse=True)
        assert pairs[MAX_LASSO_CANDIDATES - 1][0] == min(aux.game.global_weights)
        assert floored == full and len(full) == 20

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_players,budget", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("gate", [0, eqdesign.equilibria.PRUNE_LAYER_SUMS])
    def test_seeded_auxiliary_games(self, seed, n_players, budget, gate, monkeypatch):
        # Gate 0 prunes the small walks of these games too.
        monkeypatch.setattr(eqdesign.equilibria, "PRUNE_LAYER_SUMS", gate)
        aux = build_auxiliary(gen_random_game(seed, n_players, 2 + seed % 2), budget)
        floored, full = self.both(aux, 4 + seed % 5)
        assert keys(floored) == keys(full)


class TestDistinctCandidates:
    """Certify solves each product once, without a dedupe: the replay
    machines are distinct among themselves, the subsidy schemes too, the
    two families never meet, and each candidate pays; nor do any two of them give one product (arena and weight
    tables), since subsidy schemes pay at reachable states only.  A new
    family that overlaps an old one fails here.  Distinct (value, length)
    pairs of an auxiliary game's top sweep replay as distinct machines, all
    listed pairs and not only those certify reads, since
    ``_lasso_candidates`` drops no repeat."""

    @staticmethod
    def candidates(game):
        """The certify loop's candidates at budget 1 and bound 12, in order,
        each checked apart from the others by machine and by product."""
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        found = list(_candidates(game, q))
        assert len(set(keys(found))) == len(found)
        products = [product_key(implement(game, rm)) for rm in found]
        assert len(set(products)) == len(products)
        return found

    @staticmethod
    def assert_pairs_replay_apart(game, budget, bound):
        aux = build_auxiliary(game, budget)
        solver = NashLassoSolver(aux.game, 0, bound)
        pairs = {}
        for rec in solver.signatures(top=MAX_LASSO_CANDIDATES):
            pairs.setdefault((rec[3][-1], rec[2]), rec)
        replays = [replay_machine(aux, solver.realize(rec)) for rec in pairs.values()]
        assert len(set(keys(replays))) == len(replays)

    @pytest.mark.parametrize("make", [gen_hamiltonian_game, gen_hamiltonian_complement_game])
    @pytest.mark.parametrize("graph", ["WITH", "WITHOUT"])
    def test_criterion_5_games(self, make, graph):
        game = make(getattr(TestFlooredCandidates, graph))
        assert len(self.candidates(game)) > MAX_LASSO_CANDIDATES
        self.assert_pairs_replay_apart(game, 1, 12)

    @pytest.mark.parametrize("seed", [None, *range(10)])
    def test_example1_and_seeded_games(self, seed):
        game = gen_example1()[0] if seed is None else gen_random_game(seed, 2, 3, 2)
        self.candidates(game)
        # The replays alone, at budgets 1-2, with 2-4 states and bounds 4-8.
        if seed is None:
            for budget, bound in ((1, 4), (2, 8)):
                self.assert_pairs_replay_apart(game, budget, bound)
            return
        for n_players in (2, 3):
            for budget in (1, 2):
                self.assert_pairs_replay_apart(
                    gen_random_game(seed, n_players, 2 + seed % 3), budget, 4 + seed % 5)

    @pytest.mark.parametrize("n_players,seeds,n_unreachable", [(2, range(40), 18),
                                                               (3, range(20), 4)])
    def test_solved_products_are_distinct(self, n_players, seeds, n_unreachable,
                                          monkeypatch):
        """No decision solves one product twice, in either mode, at delta 1/2,
        0 and -1.  Subsidy schemes paying at an unreachable state once
        repeated 112 of the 2,055 products these decisions solved."""
        built, _ = TestOneSolverPerGame.count(monkeypatch)
        games = [gen_random_game(seed, n_players, 3, 2) for seed in seeds]
        assert sum(len(g.arena.reachable_states()) < g.n_states
                   for g in games) == n_unreachable
        for game in games:
            for mode in ("strong", "weak"):
                for delta in (Fraction(1, 2), Fraction(0), Fraction(-1)):
                    built.clear()
                    decide_improvement(game, ImprovementQuery(1, delta, Fraction(1), mode))
                    # The baseline's product, the candidates' and the auxiliary game.
                    products = [product_key(g) for g in built
                                if g.player_names[0] != "agent0"]
                    assert len(set(products)) == len(products), (game.meta, mode, delta)


class TestReplayMachine:
    """A replay machine has one state per lasso position and one absorbing
    state, tracks reward vectors, and gives the product of the paper's
    route, the agent-0 replay strategy through ``strategy_to_rm``: the same
    protocols, transitions and weight tables."""

    @staticmethod
    def auxiliary_games():
        """Every auxiliary game of at most AUX_CANDIDATE_STATE_LIMIT states of
        example1 at budgets 1-3, the criterion-5 games at budget 1, and
        seeded two- and three-player games at budgets 1-2."""
        games = [(gen_example1()[0], budget) for budget in (1, 2, 3)]
        games += [(make(getattr(TestFlooredCandidates, graph)), 1)
                  for make in (gen_hamiltonian_game, gen_hamiltonian_complement_game)
                  for graph in ("WITH", "WITHOUT")]
        games += [(gen_random_game(seed, n_players, 2 + seed % 3, 2), 1 + seed % 2)
                  for seed in range(30) for n_players in (2, 3)]
        for game, budget in games:
            aux = build_auxiliary(game, budget)
            if aux.game.n_states <= AUX_CANDIDATE_STATE_LIMIT:
                yield game, aux

    def test_products_are_the_strategy_routes(self):
        checked = 0
        for game, aux in self.auxiliary_games():
            solver = NashLassoSolver(aux.game, 0, 8)
            for rec in solver.signatures(top=MAX_LASSO_CANDIDATES):
                lasso = solver.realize(rec)
                rm = replay_machine(aux, lasso)
                assert rm.n_states == len(lasso.prefix_states) + len(lasso.cycle_states) + 1
                machine_state_vectors(aux, rm)
                product = implement(game, rm)
                paper = implement(game, strategy_to_rm(aux, replay_strategy(aux, lasso)))
                assert (product.arena.protocol, product.arena.transitions) == (
                    paper.arena.protocol, paper.arena.transitions)
                assert (product.weights, product.global_weights) == (
                    paper.weights, paper.global_weights)
                checked += 1
        assert checked == 3238


class TestEmptyEquilibriumSet:
    """A game with no equilibrium is worth the least global weight over the
    states play can visit, as its products are."""

    def test_unreachable_weight_is_no_value(self):
        """``gen_random_game(26, 2, 3, 2)`` has no equilibrium, and its one
        unreachable state weighs -1, the other two 1.  Read over every
        state, the base was worth -1, and a subsidy whose product has no
        equilibrium either "raised" it to 0 while the designer paid."""
        game = gen_random_game(26, 2, 3, 2)
        assert game.arena.reachable_states() == [0, 2] and game.global_weights == (1, -1, 1)
        assert exact_worst_ne(game) is None and epsilon_worst_ne(game, Fraction(1, 8)) == 1
        for method in ("certify", "paper"):
            for mode in ("strong", "weak"):
                for delta in (Fraction(1, 2), Fraction(0)):
                    ans = decide_improvement(game, ImprovementQuery(
                        1, delta, Fraction(1, 8), mode, method))
                    assert (ans.decision, ans.baseline_value) == (False, 1)
                q = ImprovementQuery(1, Fraction(-1), Fraction(1, 8), mode, method)
                # Doing nothing clears a negative delta; paper mode's
                # auxiliary game is worth 0.
                assert decide_improvement(game, q).decision == (method == "certify")


class TestMachinePayingNothing:
    """The machine paying nothing, whose product is the base game, is
    certify's baseline and no candidate: no candidate pays nothing, and
    budget 0 builds no auxiliary game, since all its replays would pay
    nothing."""

    @staticmethod
    def no_auxiliary(monkeypatch):
        def refused(game, budget):
            raise AssertionError("auxiliary game built")

        monkeypatch.setattr(eqdesign.design, "build_auxiliary", refused)

    @pytest.mark.parametrize("seed,budget,improved", [
        (14, 0, None), (14, 1, Fraction(1, 2)), (14, 2, Fraction(1, 2)),
        (24, 0, None), (24, 1, None), (24, 2, None),
    ])
    def test_no_witness_pays_nothing(self, seed, budget, improved):
        """A replay paying nothing once "raised" these strong values, 1/12
        to 1/9 and -7/6 to -10/9, by unrolling the base game, not by design."""
        game = gen_random_game(seed, 3, 3, 2)
        ans = decide_improvement(game, ImprovementQuery(budget, Fraction(0), Fraction(1, 8)))
        assert ans.decision == (improved is not None)
        if ans.decision:
            assert ans.improved_value == improved and ans.witness_rm.max_norm() > 0

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("seed", [None, 26])
    def test_negative_delta_at_budget_0_is_doing_nothing(self, example1, mode, seed,
                                                         monkeypatch):
        self.no_auxiliary(monkeypatch)
        game = example1[0] if seed is None else gen_random_game(seed, 2, 3, 2)
        ans = decide_improvement(game, ImprovementQuery(0, Fraction(-1), Fraction(1, 8), mode))
        assert ans.decision and ans.witness_rm.canonical_key() == zero_rm(game).canonical_key()
        # Strong mode reads the worst value, the baseline; weak mode the
        # first signature above the threshold, at most the best, the baseline.
        assert ans.baseline_value - 1 < ans.improved_value <= ans.baseline_value
        assert mode == "weak" or ans.improved_value == ans.baseline_value

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 4)])
    def test_budget_0_builds_no_auxiliary_game(self, example1, delta, monkeypatch):
        """Example1 at budget 0 once built 14 solvers: the base game, the
        auxiliary game and 12 replay products.  Now one: the baseline's, on
        the product of the machine paying nothing."""
        self.no_auxiliary(monkeypatch)
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = example1[0]
        assert not decide_improvement(game, ImprovementQuery(0, delta, Fraction(1, 8))).decision
        assert len(tried) == 1 and built == tried

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_negative_delta_builds_no_auxiliary_game(self, example1, mode, monkeypatch):
        """The machine paying nothing wins every delta < 0 from the
        baseline's solve, so the auxiliary game, built only at delta >= 0,
        is not built: example1 at budget 1 and delta -1 once built one per
        mode."""
        self.no_auxiliary(monkeypatch)
        ans = decide_improvement(example1[0],
                                 ImprovementQuery(1, Fraction(-1), Fraction(1, 8), mode))
        assert ans.decision and ans.witness_rm.max_norm() == 0


class TestBaselineSolve:
    """Certify solves the product of the machine paying nothing once, for
    the baseline, the base game's bound and every ``delta < 0``: it never
    tables the base game's own arena, answers ``delta < 0`` from that one
    solver without reading the candidate family, and the family holds only
    machines that pay."""

    GAMES = {
        "example1": lambda: gen_example1()[0],
        "seed3": lambda: gen_random_game(3, 2, 2),
        **{f"{make.__name__}-{graph}": (lambda make=make, graph=graph:
                                         make(getattr(TestFlooredCandidates, graph)))
           for make in (gen_hamiltonian_game, gen_hamiltonian_complement_game)
           for graph in ("WITH", "WITHOUT")},
    }

    @pytest.mark.parametrize("name", list(GAMES))
    def test_base_arena_is_never_tabled(self, name, monkeypatch):
        tabled = []

        def counting_tables(arena):
            tabled.append(arena)
            return _arena_tables(arena)

        monkeypatch.setattr(eqdesign.games, "_arena_tables", counting_tables)
        game = self.GAMES[name]()  # fresh: no tables from other tests
        for mode in ("strong", "weak"):
            for delta in (Fraction(1, 2), Fraction(0), Fraction(-1)):
                decide_improvement(game, ImprovementQuery(1, delta, Fraction(1), mode))
                assert tabled and all(a is not game.arena for a in tabled), (mode, delta)

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("seed", [None, 3, 16, 26])
    def test_negative_delta_is_one_solve(self, seed, budget, mode, monkeypatch):
        """Seed 26 has no equilibrium: the answer has no lasso."""
        def refused(*args):
            raise AssertionError("candidate family read")

        monkeypatch.setattr(eqdesign.design, "build_auxiliary", refused)
        monkeypatch.setattr(eqdesign.design, "_candidates", refused)
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = gen_example1()[0] if seed is None else gen_random_game(seed, 2, 3, 2)
        ans = decide_improvement(game, ImprovementQuery(budget, Fraction(-1), Fraction(1), mode))
        assert ans.decision and ans.witness_rm.canonical_key() == zero_rm(game).canonical_key()
        assert len(built) == 1 and built == tried
        assert (ans.witness_lasso is None) == (seed == 26)
        assert ans.witness_game is (None if seed == 26 else tried[0])

    @pytest.mark.parametrize("budget", [0, 1, 2])
    @pytest.mark.parametrize("seed,n_players", [(None, 1), *((s, 2) for s in range(6)),
                                                (0, 3), (1, 3)])
    def test_every_candidate_pays(self, seed, n_players, budget):
        game = (gen_example1()[0] if seed is None
                else gen_random_game(seed, n_players, 2 + seed % 2, 2))
        found = list(_candidates(game, ImprovementQuery(budget, Fraction(0), Fraction(1))))
        assert all(rm.max_norm() > 0 for rm in found)
        assert bool(found) == (budget > 0)


class TestBudgetPastTheVectorLimit:
    """Certify sizes the auxiliary game, ``C(budget + n, n)`` reward vectors
    per reachable state, without listing the vectors.  A budget whose
    alphabet passes ``REWARD_VECTOR_LIMIT`` leaves certify to the subsidy
    schemes, as any auxiliary game over ``AUX_CANDIDATE_STATE_LIMIT``
    states does; only paper mode, which builds that game, refuses."""

    def test_example1_at_budget_5000(self, example1):
        """example1 (strong, delta 1/2) answers "no" from budget 10, where
        its auxiliary game passes 40 states, and budget 5000 once refused."""
        game = example1[0]
        q = ImprovementQuery(5000, Fraction(1, 2), Fraction(1))
        no = (False, Fraction(0), Fraction(0), None, None, None, "certify", "strong")
        assert answer_key(decide_improvement(game, q)) == no
        assert answer_key(decide_improvement(game, dataclasses.replace(q, budget=10))) == no
        with pytest.raises(SolverLimitError, match="alphabet exceeds the size limit"):
            decide_improvement(game, dataclasses.replace(q, method="paper"))


class TestSynthesizeRm:
    def test_witness_reverifies_exactly(self, example1):
        game, _, _ = example1
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10))
        ans = decide_improvement(game, q)
        rm = synthesize_rm(game, q)
        assert rm.canonical_key() == ans.witness_rm.canonical_key()
        product = implement(game, rm)
        assert exact_worst_ne(product).global_payoff == ans.improved_value

    def test_no_witness_raises(self, example1):
        game, _, _ = example1
        q = ImprovementQuery(budget=0, delta=Fraction(1), epsilon=Fraction(1, 2))
        with pytest.raises(SolverLimitError):
            synthesize_rm(game, q)

    def test_zero_vector_witness_is_payoff_identity(self, example1):
        from lasso_walks import lasso_from_states

        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        zero_vi = aux.vec_index[(0,)]
        t, r = game.state_names.index("t"), game.state_names.index("r")
        cycle = [aux.pair_id[(t, zero_vi)], aux.pair_id[(r, zero_vi)]]
        rm = replay_machine(aux, lasso_from_states(aux.game, cycle, 0))
        assert rm.max_norm() == 0
        product = implement(game, rm)
        assert exact_worst_ne(product).global_payoff == exact_worst_ne(game).global_payoff
        assert exact_best_ne(product).global_payoff == exact_best_ne(game).global_payoff

    def test_six_step_replay_matches_two_cycle_machine(self, example1):
        """Replaying (0),(0),(0),(0),(0),(1) along two delivery loops is
        reward-equivalent to the two-cycle machine: product worst 5/6."""
        from lasso_walks import lasso_from_states

        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        zero_vi, one_vi = aux.vec_index[(0,)], aux.vec_index[(1,)]
        t, l, m = (game.state_names.index(x) for x in ("t", "l", "m"))
        cycle = [
            aux.pair_id[(t, zero_vi)], aux.pair_id[(l, zero_vi)],
            aux.pair_id[(m, zero_vi)], aux.pair_id[(t, zero_vi)],
            aux.pair_id[(l, zero_vi)], aux.pair_id[(m, one_vi)],
        ]
        # The duplicate (t, zero) entry would fold the cycle early; unroll
        # by hand instead of through lasso_from_states.
        from eqdesign.games import Lasso

        moves = []
        for k, x in enumerate(cycle):
            nxt = cycle[(k + 1) % 6]
            for joint in aux.game.arena.joint_actions(x):
                if aux.game.transitions[(x, joint)] == nxt:
                    moves.append(joint)
                    break
        lasso = Lasso((), tuple(cycle), (), tuple(moves))
        rm = replay_machine(aux, lasso)
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


class TestMemorylessEquilibria:
    @pytest.mark.parametrize("which,worst,best", [
        (0, Fraction(0), Fraction(1)),
        (1, Fraction(2, 3), Fraction(2, 3)),
        (2, Fraction(5, 6), Fraction(5, 6)),
    ])
    def test_example1_extremes_are_memoryless(self, example1, example1_products, which,
                                              worst, best):
        """On example1 and its two delivery products, the exact extremes are
        the least and greatest memoryless equilibrium values."""
        game = (example1[0], *example1_products)[which]
        values = memoryless_equilibrium_values(game)
        assert (min(values), max(values)) == (worst, best)
        assert exact_worst_ne(game).global_payoff == worst
        assert exact_best_ne(game).global_payoff == best

    def test_no_memoryless_equilibrium_in_pennies(self, pennies_game):
        assert memoryless_equilibrium_values(pennies_game) == set()
        assert exact_worst_ne(pennies_game) is None and exact_best_ne(pennies_game) is None

    @pytest.mark.parametrize("n_players", [2, 3])
    def test_extremes_bracket_every_memoryless_equilibrium(self, n_players):
        """Every memoryless equilibrium's value lies between the exact worst
        and best extremes, and neither extreme is None while one exists.  An
        extreme refused with ``SolverLimitError`` is not checked."""
        checked = 0
        for seed in range(120):
            game = gen_random_game(seed, n_players, 2 + seed % 3, 2)
            values = memoryless_equilibrium_values(game)
            if not values:
                continue
            for extreme, holds in ((exact_worst_ne, lambda v: v <= min(values)),
                                   (exact_best_ne, lambda v: v >= max(values))):
                try:
                    witness = extreme(game, bound=8)
                except SolverLimitError:
                    continue
                assert witness is not None, (seed, extreme.__name__)
                assert holds(witness.global_payoff), (seed, extreme.__name__, values)
                checked += 1
        assert checked > 200

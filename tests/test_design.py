import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqdesign.design
import eqdesign.equilibria
import eqdesign.games
from eqdesign.auxiliary import build_auxiliary, strategy_to_rm
from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_random_game,
)
from eqdesign.design import (
    AUX_CANDIDATE_STATE_LIMIT,
    MAX_LASSO_CANDIDATES,
    ImprovementQuery,
    _lasso_candidates,
    _search,
    _subsidy_candidates,
    algorithm_trace,
    decide_improvement,
    epsilon_best_ne,
    epsilon_worst_ne,
    exact_best_ne,
    exact_worst_ne,
    replay_strategy,
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
from eqdesign.rewards import implement, is_beta_rm
from eqdesign.zerosum import SolverLimitError, punishment_values

from candidate_oracle import (
    exact_extremes,
    extreme_value,
    full_candidates,
    unbounded_decision,
)
from memoryless_oracle import memoryless_equilibrium_values
from sweep_oracle import bisect_search


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
        schemes = list(_subsidy_candidates(game, q))
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


def subsequence(part, whole) -> bool:
    """Whether ``part`` is ``whole`` with some items left out, by identity."""
    rest = iter(whole)
    return all(any(x is y for y in rest) for x in part)


class TestOneSolverPerGame:
    """A decision builds one solver per game it searches: the base game, the
    auxiliary game and each solved candidate product; the witness lasso
    comes from the solver that found the value.  A skipped product gets no
    solver."""

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

    @pytest.mark.parametrize("seed,mode,delta,decision,n_tried,n_skipped", [
        # Nothing skipped: every tried product gets a solver.
        pytest.param(None, "strong", Fraction(1, 2), True, 5, 0, id="strong"),
        pytest.param(3, "strong", Fraction(0), False, 20, 0, id="seed3-strong"),
        pytest.param(3, "weak", Fraction(0), False, 20, 0, id="seed3-weak"),
        # Some or all skipped.
        pytest.param(3, "strong", Fraction(1, 2), False, 20, 4, id="seed3-strong-half"),
        pytest.param(None, "strong", Fraction(2), False, 22, 22, id="strong-delta2"),
        pytest.param(None, "weak", Fraction(1, 2), False, 22, 22, id="weak"),
    ])
    def test_certify(self, example1, seed, mode, delta, decision, n_tried, n_skipped,
                     monkeypatch):
        built, tried = self.count(monkeypatch)
        game = example1[0] if seed is None else gen_random_game(seed, 2, 2)
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        ans = decide_improvement(game, q)
        assert ans.decision == decision and len(tried) == n_tried
        assert built[0] is game
        assert built[1].n_states == build_auxiliary(game, 1).game.n_states
        solved = built[2:]
        assert subsequence(solved, tried) and len(tried) - len(solved) == n_skipped
        if not n_skipped:
            assert solved == tried

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
    """Every subsidy scheme's product of a game is on one arena object, and
    each arena's tables (its deviation moves and every player's response
    classes, from one pass) are built at most once, however many games share
    it: for the base and auxiliary games and each solved product, never for
    a product that was skipped."""

    @pytest.mark.parametrize("seed,mode,delta,n_arenas,n_skipped", [
        # Example 1: 22 products on 8 arenas, 10 subsidy schemes on one.
        pytest.param(None, "strong", Fraction(10), 8, 22, id="strong"),
        pytest.param(None, "weak", Fraction(10), 8, 22, id="weak"),
        # Nothing skipped: every product arena gets its tables.
        pytest.param(3, "strong", Fraction(0), 13, 0, id="seed3-strong"),
        pytest.param(3, "weak", Fraction(0), 13, 0, id="seed3-weak"),
    ])
    def test_certify(self, seed, mode, delta, n_arenas, n_skipped, monkeypatch):
        built, products = [], []

        def counting_tables(arena):
            built.append(arena)
            return _arena_tables(arena)

        monkeypatch.setattr(eqdesign.games, "_arena_tables", counting_tables)
        solved, tried = TestOneSolverPerGame.count(monkeypatch)
        # Fresh, so no tables come from other tests.
        game = gen_example1()[0] if seed is None else gen_random_game(seed, 2, 2)
        q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 10),
                             mode=mode, method="certify")
        assert not decide_improvement(game, q).decision
        n_subsidy = len(list(_subsidy_candidates(game, q)))
        subsidy = [product.arena for product in tried[-n_subsidy:]]
        assert all(a is subsidy[0] for a in subsidy)
        arenas = {id(product.arena): product.arena for product in tried}
        assert len(tried) == MAX_LASSO_CANDIDATES + n_subsidy and len(arenas) == n_arenas
        assert len(tried) - len(solved[2:]) == n_skipped
        # Base game, auxiliary game, and each solved product's arena: once each.
        want = {id(game.arena), id(solved[1].arena), *(id(p.arena) for p in solved[2:])}
        assert len(built) == len({id(a) for a in built}) and {id(a) for a in built} == want
        if not n_skipped:
            assert len(built) == 2 + n_arenas


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
    which solves every candidate to its exact extreme: skipping candidates
    whose largest reachable cycle mean is at most the threshold, and
    stopping each sweep at its first deciding signature, changes no
    answer.  Certify's answer does not depend on ``epsilon``."""

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
        # The 105-state auxiliary game is past AUX_CANDIDATE_STATE_LIMIT, so
        # only the 3,870 subsidy schemes are tried, and every one is skipped.
        assert len(tried) == 3870 and built == [game]


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
        value 4: one solver for the base game and one per candidate, since
        the 105-state auxiliary game is past AUX_CANDIDATE_STATE_LIMIT."""
        built, tried = TestOneSolverPerGame.count(monkeypatch)
        game = gen_hamiltonian_game(complete_digraph(4))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        ans = decide_improvement(game, q)
        assert (ans.decision, ans.baseline_value, ans.improved_value) == (
            True, Fraction(0), Fraction(4))
        assert len(tried) == 3864 and ans.witness_game is tried[-1]
        assert built[0] is game and built[1:] == tried
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

    @pytest.mark.parametrize("make", [gen_hamiltonian_game, gen_hamiltonian_complement_game])
    @pytest.mark.parametrize("graph", ["WITH", "WITHOUT"])
    def test_criterion_5_auxiliary_games(self, make, graph, monkeypatch):
        aux = build_auxiliary(make(getattr(self, graph)), 1)
        tops = self.count_sweeps(monkeypatch)
        floored, full = self.both(aux)
        assert keys(floored) == keys(full) and len(full) == MAX_LASSO_CANDIDATES
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
    """Certify solves each candidate once, without a dedupe: the replay
    machines are distinct among themselves, the subsidy schemes too, and
    the two families never meet.  A new family that overlaps an old one
    fails here.  Distinct (value, length) pairs of an auxiliary game's top
    sweep replay as distinct machines, all listed pairs and not only those
    certify reads, since ``_lasso_candidates`` drops no repeat."""

    @staticmethod
    def candidates(game):
        """The certify loop's candidates at budget 1 and bound 12, in order."""
        aux = build_auxiliary(game, 1)
        found = []
        if aux.game.n_states <= AUX_CANDIDATE_STATE_LIMIT:
            found = _lasso_candidates(aux, NashLassoSolver(aux.game, 0, 12))
        q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1))
        return [*found, *_subsidy_candidates(game, q)]

    @staticmethod
    def assert_pairs_replay_apart(game, budget, bound):
        aux = build_auxiliary(game, budget)
        solver = NashLassoSolver(aux.game, 0, bound)
        pairs = {}
        for rec in solver.signatures(top=MAX_LASSO_CANDIDATES):
            pairs.setdefault((rec[3][-1], rec[2]), rec)
        replays = [strategy_to_rm(aux, replay_strategy(aux, solver.realize(rec)))
                   for rec in pairs.values()]
        assert len(set(keys(replays))) == len(replays)

    @pytest.mark.parametrize("make", [gen_hamiltonian_game, gen_hamiltonian_complement_game])
    @pytest.mark.parametrize("graph", ["WITH", "WITHOUT"])
    def test_criterion_5_games(self, make, graph):
        game = make(getattr(TestFlooredCandidates, graph))
        found = self.candidates(game)
        assert len(found) > MAX_LASSO_CANDIDATES
        assert len(set(keys(found))) == len(found)
        self.assert_pairs_replay_apart(game, 1, 12)

    @pytest.mark.parametrize("seed", [None, *range(10)])
    def test_example1_and_seeded_games(self, seed):
        game = gen_example1()[0] if seed is None else gen_random_game(seed, 2, 3, 2)
        found = self.candidates(game)
        assert len(set(keys(found))) == len(found)
        # The replays alone, at budgets 1-2, with 2-4 states and bounds 4-8.
        if seed is None:
            for budget, bound in ((1, 4), (2, 8)):
                self.assert_pairs_replay_apart(game, budget, bound)
            return
        for n_players in (2, 3):
            for budget in (1, 2):
                self.assert_pairs_replay_apart(
                    gen_random_game(seed, n_players, 2 + seed % 3), budget, 4 + seed % 5)


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
        from lasso_walks import lasso_from_states

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
            for joint in aux.game.arena.joint_actions(x):
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

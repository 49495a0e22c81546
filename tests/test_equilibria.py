import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqdesign.equilibria
from eqdesign.auxiliary import build_auxiliary
from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_game,
    gen_random_game,
    gen_random_strategy,
    gen_tsp_game,
)
from eqdesign.equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    SolverMemo,
    ThresholdQuery,
    _build_classes,
    _field_width,
    _meets,
    _window,
    grim_trigger_profile,
    is_ne_outcome,
    ne_threshold,
    _pack_sums,
    _unpack_sums,
)
from eqdesign.games import (
    InvalidLassoError,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    make_game,
    payoffs,
    run_profile,
)
from eqdesign.rewards import from_subsidy_scheme, implement
from eqdesign.zerosum import SolverLimitError, best_response_value

from conftest import lasso_by_names
from ceiling_oracle import build_ceilings, build_classes, ceiling_values, deviation_successors
from lasso_walks import lasso_from_states
from candidate_oracle import full_realize
from sweep_oracle import fraction_window_test, oracle_signatures

# On gen_random_game(1, 2, 3, 2), s0 under joint (0, 0) loops back to s0.
S0_LOOP = Lasso((), (0,), (), ((0, 0),))


def query1(lo, hi, fixed=None):
    return ThresholdQuery((NEG_INF,), (POS_INF,), lo, hi, fixed)


class TestIsNeOutcome:
    def test_all_zero_weights_everything_is_ne(self):
        game = gen_random_game(5, n_players=2, n_states=3, weight_range=(0, 0))
        for seed in range(4):
            profile = StrategyProfile(
                (0, 1),
                (gen_random_strategy(game, 0, seed),
                 gen_random_strategy(game, 1, seed + 1)),
            )
            assert is_ne_outcome(game, run_profile(game, profile))

    def test_example1_ping_pong_is_ne(self, example1):
        game, _, _ = example1
        assert is_ne_outcome(game, lasso_by_names(game, ["t", "r"]))

    def test_tsp_lasso_skipping_a_city_rejected(self):
        costs = {e: 1 for e in complete_digraph(3).edges}
        game = gen_tsp_game(complete_digraph(3, costs))
        # Tour v1 -> v2 -> v1 skips v3, who can bail to the sink for payoff 1.
        s12 = game.state_names.index("v1>v2")
        s21 = game.state_names.index("v2>v1")
        lasso = lasso_from_states(game, [s12, s21], 0)
        assert not is_ne_outcome(game, lasso)

    def test_a1_example_cycles_are_ne(self, a1_game):
        assert is_ne_outcome(a1_game, lasso_by_names(a1_game, ["t", "l", "b", "r"]))
        assert is_ne_outcome(
            a1_game, lasso_by_names(a1_game, ["t", "l", "l", "b", "r", "r"]))


class TestGrimTrigger:
    def test_single_state_game(self):
        game = make_game(
            players=["p1"], actions=["a"], states=["s"], initial="s",
            protocol={"s": {"p1": ["a"]}}, transitions={"s": {("a",): "s"}},
            weights={"p1": {"s": 0}}, global_weights={"s": 0},
        )
        lasso = lasso_from_states(game, [0], 0)
        profile = grim_trigger_profile(game, lasso)
        assert run_profile(game, profile).cycle_states == (0,)

    def test_a1_profile_certified_for_both_players(self, a1_game):
        lasso = lasso_by_names(a1_game, ["t", "l", "b", "r"])
        profile = grim_trigger_profile(a1_game, lasso)
        per, glob = payoffs(a1_game, lasso)
        assert glob == Fraction(-1, 4)
        for i in range(2):
            assert best_response_value(a1_game, profile.without(i), i) <= per[i]

    def test_delivery_product_certified(self, example1_products):
        product, _ = example1_products
        lasso = lasso_by_names(product, ["t|q0", "l|q1", "m|q2"])
        profile = grim_trigger_profile(product, lasso)
        per, glob = payoffs(product, lasso)
        assert glob == Fraction(2, 3)
        assert best_response_value(product, profile.without(0), 0) <= per[0]

    def test_rejects_non_equilibrium_lasso(self, example1_products):
        product, _ = example1_products
        # Ping-pong in the product forfeits the delivery reward rate.
        names = [n for n in product.state_names if n.startswith(("t|", "r|"))]
        t0 = product.state_names.index("t|q0")
        r1 = product.state_names.index("r|q1")
        lasso = lasso_from_states(product, [t0, r1], 0)
        assert not is_ne_outcome(product, lasso)
        with pytest.raises(InvalidLassoError):
            grim_trigger_profile(product, lasso)

    @pytest.mark.parametrize("fixed", [None, 0, 1])
    def test_two_player_certificate_is_the_folk_check(self, fixed):
        """With two players a lasso's grim profile passes the exact
        best-response certificate exactly when the lasso passes the
        folk-theorem test, so a solver checks its own lassos by the
        certificate alone."""
        verdicts = []
        for seed in range(12):
            game = gen_random_game(seed, 2, 3, 2)
            solver = NashLassoSolver(game, fixed, 4)
            for k in range(6):
                profile = StrategyProfile((0, 1), (gen_random_strategy(game, 0, 2 * k),
                                                   gen_random_strategy(game, 1, 2 * k + 1)))
                lasso = run_profile(game, profile)
                verdicts.append(is_ne_outcome(game, lasso, fixed))
                if verdicts[-1]:
                    assert solver._certify(lasso).lasso == lasso
                else:
                    with pytest.raises(SolverLimitError, match="best-response certificate"):
                        solver._certify(lasso)
        assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10

    @pytest.mark.parametrize("seed,n_players", [(0, 2), (3, 2), (5, 3)])
    def test_witness_evaluates_no_folk_check(self, seed, n_players, monkeypatch):
        """A solver's witnesses are checked by their certificate alone:
        neither backend calls ``payoffs`` or the folk-theorem test."""
        calls = []

        def counting(name, real):
            def spy(*args):
                calls.append(name)
                return real(*args)
            return spy

        for name in ("payoffs", "_unbeaten"):
            monkeypatch.setattr(eqdesign.equilibria, name,
                                counting(name, getattr(eqdesign.equilibria, name)))
        game = gen_random_game(seed, n_players, 3)
        solver = NashLassoSolver(game, None, 6)
        sigs = solver.signatures()
        assert sigs
        witnesses = [solver.witness(rec) for rec in sigs[:4]]
        free = ThresholdQuery((NEG_INF,) * n_players, (POS_INF,) * n_players)
        witnesses.append(solver.lp_witness(free))
        assert calls == []
        for w in witnesses:
            # The spy is live: the module's own call would have been seen.
            assert eqdesign.equilibria.payoffs(game, w.lasso) == (w.player_payoffs,
                                                                  w.global_payoff)
        assert calls == ["payoffs"] * len(witnesses)

    @pytest.mark.parametrize("seed,n_players", [(0, 2), (5, 3)])
    def test_certificate_validates_no_strategy(self, seed, n_players, monkeypatch):
        """A certificate's grim profile is the solver's own, so its best
        responses check no strategy; the public ``best_response_value``
        still checks each committed one."""
        calls = []
        validate = MealyStrategy.validate

        def counting(strategy, game, player):
            calls.append(player)
            return validate(strategy, game, player)

        monkeypatch.setattr(MealyStrategy, "validate", counting)
        game = gen_random_game(seed, n_players, 3)
        solver = NashLassoSolver(game, None, 6)
        witnesses = [solver.witness(rec) for rec in solver.signatures()[:4]]
        free = ThresholdQuery((NEG_INF,) * n_players, (POS_INF,) * n_players)
        witnesses.append(solver.lp_witness(free))
        assert calls == []
        for w in witnesses:
            assert best_response_value(game, w.profile.without(0), 0) <= w.player_payoffs[0]
        assert calls == list(range(1, n_players)) * len(witnesses)


class TestNeThreshold:
    def test_example1_zero_window(self, example1):
        game, _, _ = example1
        witness = ne_threshold(game, query1(Fraction(0), Fraction(0)))
        assert witness is not None
        assert witness.global_payoff == 0
        assert [game.state_names[s] for s in witness.lasso.cycle_states] == ["t", "r"]

    def test_example1_high_window(self, example1):
        game, _, _ = example1
        witness = ne_threshold(game, query1(Fraction(1), POS_INF))
        assert witness is not None
        assert witness.global_payoff == 1
        assert set(witness.lasso.cycle_states) == {
            game.state_names.index(n) for n in ("t", "l", "m")
        }

    def test_window_above_max_weight_is_empty(self, example1_products):
        product, _ = example1_products
        assert ne_threshold(product, query1(Fraction(3), POS_INF)) is None

    def test_infeasible_bounds_rejected(self, example1):
        with pytest.raises(ValueError):
            query1(Fraction(1), Fraction(0))

    @pytest.mark.parametrize("bad", [0.5, 0.0, True, "1"])
    def test_inexact_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="query bound"):
            query1(bad, POS_INF)
        with pytest.raises(ValueError, match="query bound"):
            ThresholdQuery((bad,), (POS_INF,))
        assert query1(-1, 2) == query1(Fraction(-1), Fraction(2))

    def test_unequal_bound_lengths_rejected(self):
        # zip would drop player 1's upper bound; the LP would index past it.
        with pytest.raises(ValueError, match="same players"):
            ThresholdQuery(lower=(NEG_INF, NEG_INF), upper=(Fraction(-100),))
        with pytest.raises(ValueError, match="same players"):
            ThresholdQuery(lower=(NEG_INF,), upper=(POS_INF, POS_INF))

    @pytest.mark.parametrize("fixed", [7, -1, 2])
    def test_fixed_player_out_of_range_rejected(self, fixed):
        game = gen_random_game(3, 2, 3, 2)
        with pytest.raises(ValueError, match="not a player index"):
            NashLassoSolver(game, fixed)
        query = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, fixed_player=fixed)
        with pytest.raises(ValueError, match="not a player index"):
            ne_threshold(game, query)

    # Each case was accepted and reinterpreted, or crashed deep inside.
    @pytest.mark.parametrize("build,match", [
        (lambda: ne_threshold(gen_random_game(3, 2, 3, 2),
                              ThresholdQuery((POS_INF, NEG_INF), (POS_INF, POS_INF)),
                              backend="lp"), "empty payoff window"),
        (lambda: ThresholdQuery((NEG_INF, NEG_INF), (POS_INF, NEG_INF)), "empty payoff window"),
        (lambda: query1(POS_INF, POS_INF), "empty payoff window"),
        (lambda: query1(NEG_INF, NEG_INF), "empty payoff window"),
        (lambda: query1(NEG_INF, POS_INF, fixed=True), "not a player index"),
        (lambda: query1(NEG_INF, POS_INF, fixed=0.0), "not a player index"),
        (lambda: NashLassoSolver(gen_example1()[0], bound=True), "length bound"),
        (lambda: NashLassoSolver(gen_example1()[0], bound=3.0), "length bound"),
        (lambda: NashLassoSolver(gen_random_game(3, 2, 3, 2), fixed=True),
         "not a player index"),
        # The loop at s0 is no equilibrium, but was one with player 1 read as fixed.
        (lambda: is_ne_outcome(gen_random_game(1, 2, 3, 2), S0_LOOP, fixed=True),
         "not a player index"),
        (lambda: grim_trigger_profile(gen_random_game(1, 2, 3, 2), S0_LOOP, fixed=True),
         "not a player index"),
        (lambda: is_ne_outcome(gen_random_game(1, 2, 3, 2), S0_LOOP, fixed=7),
         "not a player index"),
        (lambda: grim_trigger_profile(gen_random_game(1, 2, 3, 2), S0_LOOP, fixed=7),
         "not a player index"),
    ], ids=["lp-lower-plus-inf", "upper-minus-inf", "global-lower-plus-inf",
            "global-upper-minus-inf", "query-fixed-true", "query-fixed-float",
            "solver-bound-true", "solver-bound-float", "solver-fixed-true",
            "ne-outcome-fixed-true", "grim-fixed-true", "ne-outcome-fixed-7",
            "grim-fixed-7"])
    def test_inexact_parameters_refused(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_pennies_has_no_equilibrium(self, pennies_game):
        solver = NashLassoSolver(pennies_game)
        assert not solver.has_equilibrium()
        for lo, hi in [(NEG_INF, POS_INF), (Fraction(0), Fraction(1))]:
            q = ThresholdQuery((NEG_INF, NEG_INF), (POS_INF, POS_INF), lo, hi)
            assert solver.query_oracle(q) is None
            assert not solver.lp_feasible(q)

    def test_witness_passes_exact_certificates(self, a1_game):
        q = ThresholdQuery((NEG_INF, NEG_INF), (POS_INF, POS_INF),
                           Fraction(-1, 4), Fraction(-1, 4))
        witness = ne_threshold(a1_game, q)
        assert witness is not None
        for i in range(2):
            br = best_response_value(a1_game, witness.profile.without(i), i)
            assert br <= witness.player_payoffs[i]

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_in_window_width(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        solver = NashLassoSolver(game)
        import random

        rng = random.Random(seed)
        c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        w = Fraction(rng.choice([1, 2]), 2)
        narrow = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, c, c + w)
        wide = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, c - 1, c + w + 1)
        if solver.query_oracle(narrow) is not None:
            assert solver.query_oracle(wide) is not None

    @pytest.mark.parametrize("seed", range(40))
    def test_lp_and_oracle_backends_agree(self, seed):
        import random

        rng = random.Random(("agree", seed).__repr__())
        game = gen_random_game(seed + 300, n_players=2,
                               n_states=rng.choice([2, 3, 4]))
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        style = rng.random()
        if style < 0.4:
            lo, hi = NEG_INF, c
        elif style < 0.8:
            lo, hi = c, POS_INF
        else:
            lo, hi = c, c + 1
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, lo, hi)
        solver = NashLassoSolver(game, bound=12)
        assert (solver.query_oracle(q) is not None) == solver.lp_feasible(q)

    @pytest.mark.parametrize(
        "case", ["example1", *((2, seed) for seed in range(6)),
                 *((3, seed) for seed in (*range(6), 87))],
        ids=lambda c: c if isinstance(c, str) else f"p{c[0]}-seed{c[1]}")
    def test_lp_witness_is_valid(self, case):
        """An LP witness lies in the window and no player beats it by an
        exact best response, or it is refused; grim trigger is sound with
        two players, so only three may refuse."""
        if case == "example1":
            game, players, bound = gen_example1()[0], 1, 12
            q = query1(Fraction(1, 2), Fraction(1))
        else:
            (players, seed), bound = case, 8
            game = gen_random_game(seed, n_players=players, n_states=3)
            values = NashLassoSolver(game, bound=bound).global_values()
            q = ThresholdQuery((NEG_INF,) * players, (POS_INF,) * players,
                               values[len(values) // 2], POS_INF)
        try:
            witness = ne_threshold(game, q, backend="lp", bound=bound)
        except SolverLimitError:
            assert players == 3
            return
        assert witness is not None
        per = witness.player_payoffs
        assert all(lo <= v <= hi for v, lo, hi in zip(per, q.lower, q.upper))
        assert q.global_lower <= witness.global_payoff <= q.global_upper
        assert is_ne_outcome(game, witness.lasso)
        for i in range(players):
            assert best_response_value(game, witness.profile.without(i), i) <= per[i]

    def test_lp_refuses_uncertified_three_player_witness(self):
        # The LP's grim-trigger profile here lets player index 2 secure -1/2
        # against its payoff of -1; the witness must be refused, not returned.
        game = gen_random_game(75, 3, 3, 2)
        q = ThresholdQuery((NEG_INF,) * 3, (POS_INF,) * 3)
        with pytest.raises(SolverLimitError, match="best-response certificate"):
            ne_threshold(game, q, backend="lp", bound=8)


payoff_bounds = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))


@st.composite
def payoff_windows(draw, attained):
    """A window whose finite edges are drawn bounds or payoffs some signature attains."""
    edge = st.sampled_from(attained) | payoff_bounds if attained else payoff_bounds
    kind = draw(st.sampled_from(["free", "below", "above", "point", "interval"]))
    if kind == "free":
        return NEG_INF, POS_INF
    a = draw(edge)
    if kind == "below":
        return NEG_INF, a
    if kind == "above":
        return a, POS_INF
    return a, a if kind == "point" else a + draw(st.sampled_from([Fraction(1, 3), 1, 2]))


class TestPayoffRows:
    """The oracle tests the query's payoff rows inside its sweep, by integer
    cross-multiplication, and returns the first signature of the exhaustive
    list that passes them: the one a scan of that list by ``_meets`` finds,
    and the one a test by one ``Fraction`` per payoff finds."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([None, 0]), st.data(),
           st.sampled_from([0, eqdesign.equilibria.PRUNE_LAYER_SUMS]))
    def test_query_oracle_is_first_signature_in_the_window(self, seed, n_players, n_states,
                                                           fixed, data, gate):
        with mock.patch.object(eqdesign.equilibria, "PRUNE_LAYER_SUMS", gate):
            self.check_first_in_window(seed, n_players, n_states, fixed, data)

    @staticmethod
    def check_first_in_window(seed, n_players, n_states, fixed, data):
        game = gen_random_game(seed, n_players, n_states)
        solver = NashLassoSolver(game, fixed, bound=5)
        sigs = solver.signatures()
        windows = []
        for k in range(n_players + 1):
            attained = sorted({Fraction(sums[k], length) for _, _, length, sums, _ in sigs})
            windows.append(data.draw(payoff_windows(attained)))
        (*per_player, (gl, gu)) = windows
        query = ThresholdQuery(tuple(lo for lo, _ in per_player),
                               tuple(hi for _, hi in per_player), gl, gu, fixed)
        want = next((rec for rec in sigs if fraction_window_test(query, rec[3], rec[2])), None)
        window = _window(query)
        assert next((rec for rec in sigs if _meets(window, rec[3], rec[2])), None) == want
        assert solver.query_oracle(query) == want


def value(rec) -> Fraction:
    return Fraction(rec[3][-1], rec[2])


class TestFlooredSweep:
    """A designer floor cuts the sweep to the exhaustive list's suffix at the
    floor, records unchanged, and realizes every record as before."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([None, 0]), st.integers(2, 8),
           st.sampled_from([0, eqdesign.equilibria.PRUNE_LAYER_SUMS]))
    def test_every_value_as_floor(self, seed, n_players, n_states, fixed, bound, gate):
        # Gate 0 prunes every layer of these small walks; the default, few.
        with mock.patch.object(eqdesign.equilibria, "PRUNE_LAYER_SUMS", gate):
            self.check_every_value_as_floor(seed, n_players, n_states, fixed, bound)

    @staticmethod
    def check_every_value_as_floor(seed, n_players, n_states, fixed, bound):
        game = gen_random_game(seed, n_players, n_states)
        full = NashLassoSolver(game, fixed, bound).signatures()
        pairs = sorted({(value(rec), rec[2]) for rec in full}, reverse=True)
        # Every designer value is the floor of the top pairs down to its first.
        assert {v for v, _ in pairs} == {pairs[top - 1][0] for top in range(1, len(pairs) + 1)}
        memo = SolverMemo()
        for top in range(1, len(pairs) + 2):
            floor = pairs[top - 1][0] if top <= len(pairs) else min(game.global_weights)
            want = [rec for rec in full if value(rec) >= floor]
            solver = NashLassoSolver(game, fixed, bound, memo)
            assert solver.signatures(top=top) == want
            for rec in want:
                assert solver.realize(rec) == full_realize(solver, rec)
            # An exhaustive sweep before it changes nothing: no sweep is kept.
            solver.signatures()
            assert solver.signatures(top=top) == want

    @staticmethod
    def walks(solver, rec, sign=1):
        """The plain walk of ``rec`` and the walk pruned by the designer row
        at its value: a floor, or with ``sign`` -1 a ceiling."""
        ci, anchor, length, sums, _ = rec
        cei = solver._ceilings[ci]
        plain = list(solver._walk(cei, anchor, length))
        row = (solver.game.n_players, sign * length, sign * sums[-1])
        pruned = list(solver._walk(cei, anchor, length, lambda: row))
        return plain, pruned

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_walk_keeps_states_in_order(self, seed, monkeypatch):
        monkeypatch.setattr(eqdesign.equilibria, "PRUNE_LAYER_SUMS", 0)
        game = gen_random_game(seed, n_players=3, n_states=4)
        solver = NashLassoSolver(game, None, 8)
        for rec in solver.signatures():
            _, anchor, _, sums, _ = rec
            for sign in (1, -1):
                plain, pruned = self.walks(solver, rec, sign)
                assert [list(layer) for layer in pruned] == [list(layer) for layer in plain]
                assert all(xs <= plain[k][t] for k, layer in enumerate(pruned)
                           for t, xs in layer.items())
                assert _pack_sums(sums, solver._width) in pruned[-1][anchor]

    def test_small_walks_are_not_pruned(self):
        # Every layer of these walks holds at most PRUNE_LAYER_SUMS sums, so
        # the floor builds no tables; with the gate at 0 it prunes some.
        solver = NashLassoSolver(gen_random_game(3, n_players=3, n_states=4), None, 8)
        dropped = 0
        for rec in solver.signatures():
            plain, pruned = self.walks(solver, rec)
            assert max(sum(map(len, layer.values())) for layer in plain) <= (
                eqdesign.equilibria.PRUNE_LAYER_SUMS)
            assert pruned == plain
            with mock.patch.object(eqdesign.equilibria, "PRUNE_LAYER_SUMS", 0):
                pruned = self.walks(solver, rec)[1]
            dropped += sum(len(xs) for layer in plain for xs in layer.values())
            dropped -= sum(len(xs) for layer in pruned for xs in layer.values())
        assert dropped > 0

    def test_pruning_starts_at_a_large_layer(self):
        # On the fork's auxiliary game, the walk of the most valuable
        # signature reaches layers of thousands of sums; a floor at its value
        # prunes from the first layer holding more than PRUNE_LAYER_SUMS.
        graph = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3")))
        aux = build_auxiliary(gen_hamiltonian_game(graph), 1)
        solver = NashLassoSolver(aux.game, 0, 12)
        plain, pruned = self.walks(solver, solver.extreme_signature(True))
        sizes = [sum(map(len, layer.values())) for layer in plain]
        first = next(k for k, n in enumerate(sizes)
                     if n > eqdesign.equilibria.PRUNE_LAYER_SUMS)
        assert pruned[:first] == plain[:first]
        assert all(sum(map(len, layer.values())) < n
                   for layer, n in zip(pruned[first:], sizes[first:]))

    @pytest.mark.parametrize("bad", [0, -1, 1.0, True, "1"])
    def test_top_must_be_a_positive_int(self, bad):
        solver = NashLassoSolver(gen_example1()[0], None, 4)
        with pytest.raises(ValueError, match="top"):
            solver.signatures(top=bad)


class TestFlooredExtremes:
    """An extreme comes from a sweep whose designer row moves toward it, a
    floor for the best and a ceiling for the worst: the same record as the
    exhaustive list's end, so the same realized lasso and witness."""

    @staticmethod
    def check(game, fixed, bound):
        full = NashLassoSolver(game, fixed, bound)
        sigs = full.signatures()
        for maximize in (False, True):
            want = (sigs[-1] if maximize else sigs[0]) if sigs else None
            solver = NashLassoSolver(game, fixed, bound)
            got = solver.extreme_signature(maximize)
            assert got == want
            if want is not None:
                assert solver.realize(got) == full.realize(want) == full_realize(full, want)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([None, 0]), st.integers(2, 8),
           st.sampled_from([0, eqdesign.equilibria.PRUNE_LAYER_SUMS]),
           st.sampled_from([(-2, 2), (-5, 7)]))
    def test_seeded_games(self, seed, n_players, n_states, fixed, bound, gate, weights):
        # Gate 0 prunes every layer of these small walks; the default, few.
        with mock.patch.object(eqdesign.equilibria, "PRUNE_LAYER_SUMS", gate):
            self.check(gen_random_game(seed, n_players, n_states, weight_range=weights),
                       fixed, bound)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_no_equilibrium(self, pennies_game, maximize):
        solver = NashLassoSolver(pennies_game)
        assert solver.extreme_signature(maximize) is None
        self.check(pennies_game, None, 12)

    def test_tour_walks_prune_both_ways(self, monkeypatch):
        # The 4-city tour's walks at bound 12 outgrow PRUNE_LAYER_SUMS, so
        # each direction builds designer tables: from a ceiling row toward
        # the worst, from a floor row toward the best.
        rng = random.Random(4)
        costs = {e: rng.randint(1, 9) for e in complete_digraph(4).edges}
        game = gen_tsp_game(complete_digraph(4, costs))
        rows = []
        limits = NashLassoSolver._designer_limits

        def spy(solver, steps, anchor, horizon, row):
            rows.append(row)
            return limits(solver, steps, anchor, horizon, row)

        monkeypatch.setattr(NashLassoSolver, "_designer_limits", spy)
        for maximize in (False, True):
            rows.clear()
            NashLassoSolver(game, None, 12).extreme_signature(maximize)
            sign = 1 if maximize else -1
            assert rows and all(k == game.n_players and sign * q > 0 for k, q, _ in rows)
        self.check(game, None, 12)


def check_against_sweep_oracle(game, fixed, bound):
    """The packed sweep equals the tuple sweep; every signature realizes."""
    solver = NashLassoSolver(game, fixed, bound)
    sigs = solver.signatures()
    assert sigs == oracle_signatures(solver)
    for rec in sigs:
        _, anchor, length, sums, prefix_len = rec
        lasso = solver.realize(rec)
        assert len(lasso.cycle_states) == length
        assert min(lasso.cycle_states) == anchor
        assert len(lasso.prefix_states) == prefix_len
        per, glob = payoffs(game, lasso)
        assert per == tuple(Fraction(v, length) for v in sums[:-1])
        assert glob == Fraction(sums[-1], length)
        assert is_ne_outcome(game, lasso, fixed)
    return sigs


def reweighted(game, offset, global_factor=1):
    """The same arena, every player weight shifted by ``offset`` and every
    global weight multiplied by ``global_factor``.

    A shift moves payoffs and punishments alike, so the equilibria stay the
    same while every sum gets the magnitude of ``offset``; the punishment
    solver's cost follows the weight range, not the magnitude.
    """
    return dataclasses.replace(
        game,
        weights=tuple(tuple(w + offset for w in row) for row in game.weights),
        global_weights=tuple(w * global_factor for w in game.global_weights),
    )


def moved(rec, offset, global_factor):
    ci, anchor, length, sums, prefix_len = rec
    sums = tuple(v + offset * length for v in sums[:-1]) + (sums[-1] * global_factor,)
    return ci, anchor, length, sums, prefix_len


def solver_classes(solver):
    """The move classes under ``solver``'s punishment ranks, as its memo
    builds them: the ceiling records keep only the classes each allows."""
    game = solver.game
    return _build_classes(game.arena, tuple(solver.pun[i].ranks if i in solver.pun else None
                                            for i in range(game.n_players)))


class TestCeilingRanks:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5),
           st.sampled_from([None, 0]))
    def test_ranks_match_fraction_lattice(self, seed, n_players, n_states, fixed):
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        solver = NashLassoSolver(game, fixed, 4)

        def values(ranks):
            assert all(type(r) is int for r in ranks)
            return tuple(None if r < 0 else solver.pun[i].levels[r]
                         for i, r in enumerate(ranks))

        classes = build_classes(solver)
        assert [[(c.succ, values(c.devmax), c.joint) for c in per_state]
                for per_state in solver_classes(solver)] == classes
        assert [values(c.ranks) for c in solver._ceilings] == build_ceilings(classes, n_players)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5), st.integers(2, 3),
           st.sampled_from([None, 0]))
    def test_classes_ordered_by_successor_then_joint(self, seed, n_players, n_states,
                                                      n_actions, fixed):
        """The LP unroll reads each state's classes in this order."""
        game = gen_random_game(seed, n_players, n_states, n_actions)
        solver = NashLassoSolver(game, fixed, 4)
        for per_state in solver_classes(solver):
            keys = [(c.succ, c.joint) for c in per_state]
            assert keys == sorted(set(keys))

    def test_ceiling_lattice_limit(self, monkeypatch):
        game = gen_random_game(3, n_players=3, n_states=4)
        assert len(NashLassoSolver(game, None, 4)._ceilings) > 2
        monkeypatch.setattr(eqdesign.equilibria, "CEILING_LIMIT", 2)
        with pytest.raises(SolverLimitError, match="deviation ceiling lattice too large"):
            NashLassoSolver(game, None, 4)

    @pytest.mark.parametrize("game", [gen_random_game(3, 3, 3, 2), gen_example1()[0]])
    def test_seeds_alone_count_toward_the_limit(self, game, monkeypatch):
        # Two seeds and no join adds a ceiling: only the seeds can exceed it.
        assert len(NashLassoSolver(game, None, 4)._ceilings) == 2
        monkeypatch.setattr(eqdesign.equilibria, "CEILING_LIMIT", 2)
        NashLassoSolver(game, None, 4)
        monkeypatch.setattr(eqdesign.equilibria, "CEILING_LIMIT", 1)
        with pytest.raises(SolverLimitError, match="deviation ceiling lattice too large"):
            NashLassoSolver(game, None, 4)


class TestCeilingRecords:
    """Each ceiling's sub-arena, built once per solver and read by every consumer."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5),
           st.sampled_from([None, 0]))
    def test_record_is_the_ceilings_sub_arena(self, seed, n_players, n_states, fixed):
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        solver = NashLassoSolver(game, fixed, 4)
        classes = solver_classes(solver)
        assert len(solver._floors) == len(solver._ceilings)
        for cei, floors in zip(solver._ceilings, solver._floors):
            assert floors == [(k, v.denominator, v.numerator)
                              for k, v in enumerate(ceiling_values(solver, cei.ranks))
                              if v is not None]
            assert cei.allowed == [[c for c in per_state
                                    if all(d <= r for d, r in zip(c.devmax, cei.ranks))]
                                   for per_state in classes]
            for per_state, succs in zip(cei.allowed, cei.succs):
                order = [c.succ for c in per_state]
                assert succs == sorted(set(order), key=order.index)
            # Distances by relaxation, independent of the tree's own search.
            dist = {game.initial: 0}
            for _ in range(game.n_states):
                for s, d in list(dist.items()):
                    for c in cei.allowed[s]:
                        dist[c.succ] = min(dist.get(c.succ, d + 1), d + 1)
            assert {s: d for s, (d, _, _) in cei.tree.items()} == dist
            assert cei.tree[game.initial] == (0, None, None)
            for t, (d, parent, cls) in cei.tree.items():
                if t == game.initial:
                    continue
                # The parent sits one layer up and enters t by its first
                # class into t.
                assert cei.tree[parent][0] == d - 1
                assert cls == next(c for c in cei.allowed[parent] if c.succ == t)

    def test_one_record_per_ceiling_per_solver(self, monkeypatch):
        built = []
        record = eqdesign.equilibria._ceiling

        def spy(arena, classes, ranks):
            built.append((arena, ranks))
            return record(arena, classes, ranks)

        monkeypatch.setattr(eqdesign.equilibria, "_ceiling", spy)
        game = gen_random_game(3, n_players=3, n_states=4)
        solver = NashLassoSolver(game, None, 6)
        assert len(solver._ceilings) > 2
        sigs = solver.signatures()
        assert solver.signatures(top=2) and sigs
        solver.realize(sigs[0])
        free = ThresholdQuery((NEG_INF,) * 3, (POS_INF,) * 3)
        assert solver.lp_feasible(free)
        _, _, length, sums, _ = sigs[-1]
        solver.lp_feasible(dataclasses.replace(free, global_lower=Fraction(sums[-1], length)))
        solver.lp_witness(free)
        assert built == [(game.arena, cei.ranks) for cei in solver._ceilings]

    def test_components_searched_once_per_record_probed(self, monkeypatch):
        """The LP reads a record's components and edges from the record: a
        probe searches the components of the records it reaches for the
        first time, and no others."""
        searched = []
        components = eqdesign.equilibria.strongly_connected_components

        def counting(succs):
            searched.append(succs)
            return components(succs)

        monkeypatch.setattr(eqdesign.equilibria, "strongly_connected_components", counting)
        game = gen_random_game(3, n_players=3, n_states=4)
        solver = NashLassoSolver(game, None, 6)
        free = ThresholdQuery((NEG_INF,) * 3, (POS_INF,) * 3)
        # The scan stops at the first record with a feasible polytope.
        assert solver.lp_feasible(free)
        assert searched == [cei.succs for cei in solver._ceilings[:len(searched)]]
        assert len(searched) < len(solver._ceilings)
        none = dataclasses.replace(free, global_lower=max(game.global_weights) + 1)
        for _ in range(3):
            assert not solver.lp_feasible(none)
            assert solver.lp_feasible(free)
        solver.lp_witness(free)
        assert len(solver._ceilings) > 2
        assert searched == [cei.succs for cei in solver._ceilings]


class TestSolverMemo:
    def test_each_arena_player_row_solved_once(self, monkeypatch):
        """Each (arena, player, weight row) is solved once, and on its own:
        the same row on another arena is solved again."""
        solves = []
        solve = eqdesign.equilibria.punishment_values

        def spy(game, player):
            solves.append((game.arena, player, game.weights[player]))
            return solve(game, player)

        def raised(game, *rise):
            row = tuple(map(int.__add__, game.weights[0], rise))
            return dataclasses.replace(game, weights=(row, *game.weights[1:]))

        monkeypatch.setattr(eqdesign.equilibria, "punishment_values", spy)
        game, other = gen_random_game(4, 2, 3), gen_random_game(5, 2, 3)
        same_rows = dataclasses.replace(other, weights=game.weights)
        memo = SolverMemo()
        rises = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0)]
        for _ in range(2):
            for rise in rises:
                assert memo.punishment(raised(game, *rise), 0) == solve(raised(game, *rise), 0)
            memo.punishment(same_rows, 0)
            memo.punishment(game, 1)
        assert solves == [(game.arena, 0, raised(game, *rise).weights[0]) for rise in rises[:5]] \
            + [(other.arena, 0, game.weights[0]), (game.arena, 1, game.weights[1])]

    def test_structures_are_kept_by_arena(self):
        """Seeded games 3 and 7 have equal punishment ranks and levels on
        different arenas: through one memo, each keeps its own structure."""
        games = [gen_random_game(seed, 2, 2) for seed in (3, 7)]
        memo = SolverMemo()
        shared = [NashLassoSolver(game, None, 4, memo) for game in games]
        fresh = [NashLassoSolver(game, None, 4) for game in games]
        ranks = [[(pun.ranks, pun.levels) for pun in s.pun.values()] for s in fresh]
        assert ranks[0] == ranks[1]
        assert [s.signatures() for s in shared] == [s.signatures() for s in fresh]
        assert fresh[0].signatures() != fresh[1].signatures()

    @pytest.mark.parametrize("seed,n_players", [(5, 2), (7, 2), (6, 3)])
    def test_records_are_shared_across_punishment_levels(self, seed, n_players):
        """A product paying player 0 one unit everywhere raises each of its
        punishment levels by one and keeps their ranks: on one memo it shares
        the zero product's ceiling records and sweeps with its own floors."""
        game = gen_random_game(seed, n_players, 3)
        zero, paid = (implement(game, from_subsidy_scheme(game, kappa)) for kappa in (
            {}, {s: (1,) + (0,) * (n_players - 1) for s in range(game.n_states)}))
        memo = SolverMemo()
        a, b = (NashLassoSolver(product, None, 6, memo) for product in (zero, paid))
        assert [pun.ranks for pun in a.pun.values()] == [pun.ranks for pun in b.pun.values()]
        assert b.pun[0].levels == tuple(v + 1 for v in a.pun[0].levels)
        assert b._ceilings is a._ceilings
        # Player 0's floors rise by one, every other row stays.
        assert b._floors == [[(k, q, p + q * (k == 0)) for k, q, p in rows]
                             for rows in a._floors] != a._floors
        # Each payment also charges the designer one unit per step.
        sigs = a.signatures()
        assert sigs
        assert b.signatures() == [
            (ci, anchor, n, (sums[0] + n, *sums[1:-1], sums[-1] - n), prefix)
            for ci, anchor, n, sums, prefix in sigs]
        for solver, product in ((a, zero), (b, paid)):
            assert solver.signatures() == NashLassoSolver(product, None, 6).signatures()

    @pytest.mark.parametrize("seed,n_players,fixed", [(0, 2, None), (3, 3, None), (5, 2, 0)])
    def test_a_lone_solver_builds_its_own_memo(self, seed, n_players, fixed):
        """A solver given no memo builds one of its own: it answers as a
        solver given a fresh memo, and every record keeps the walk steps of
        each anchor the sweep walked."""
        game = gen_random_game(seed, n_players, 3)
        lone = NashLassoSolver(game, fixed, 6)
        given = NashLassoSolver(game, fixed, 6, SolverMemo())
        free = ThresholdQuery((NEG_INF,) * n_players, (POS_INF,) * n_players,
                              fixed_player=fixed)
        sigs = lone.signatures()
        assert sigs and sigs == given.signatures()
        assert lone.pun == given.pun
        assert lone.signatures(top=2) == given.signatures(top=2)
        assert [lone.realize(rec) for rec in sigs] == [given.realize(rec) for rec in sigs]
        assert lone.lp_feasible(free) == given.lp_feasible(free)
        for cei in lone._ceilings:
            walked = {anchor for anchor, (dist, _, _) in cei.tree.items() if dist < lone.bound}
            assert walked <= set(cei.kept_steps)


class TestLpUnroll:
    """The three stages of ``_lp_realize``: the vertex's own Euler circuit,
    the re-solve that forces every move, and the bounded oracle's lasso."""

    @staticmethod
    def unrolls(monkeypatch) -> list[bool]:
        """Records, per ``_euler_lasso`` call, whether it returned a lasso."""
        seen: list[bool] = []
        euler = NashLassoSolver._euler_lasso

        def spy(solver, tree, edges, point):
            lasso = euler(solver, tree, edges, point)
            seen.append(lasso is not None)
            return lasso

        monkeypatch.setattr(NashLassoSolver, "_euler_lasso", spy)
        return seen

    @staticmethod
    def certified_in_window(game, q, witness):
        per, glob = payoffs(game, witness.lasso)
        assert (per, glob) == (witness.player_payoffs, witness.global_payoff)
        assert all(lo <= v <= hi for v, lo, hi in zip(per, q.lower, q.upper))
        assert q.global_lower <= glob <= q.global_upper
        assert is_ne_outcome(game, witness.lasso)

    @staticmethod
    def vertices(solver, q):
        """``(tree, edges, vertex)`` of every feasible polytope, in scan order."""
        for cei, floors in zip(solver._ceilings, solver._floors):
            for members, edges in cei.polytopes():
                point = solver._lp_solve(_window(q), floors, members, edges, normalized=True)
                if point is not None:
                    yield cei.tree, edges, point

    def test_vertex_too_long_to_unroll(self, monkeypatch):
        """A vertex whose circuit exceeds ``LASSO_LENGTH_CAP`` is not unrolled;
        the forced circuit is longer still, so the witness is the oracle's."""
        game = gen_example1()[0]
        solver = NashLassoSolver(game, None, 12)
        q = query1(Fraction(1, 2), Fraction(1))
        tree, edges, point = next(self.vertices(solver, q))
        lasso = solver._euler_lasso(tree, edges, point)
        assert lasso is not None and len(lasso.cycle_states) == 3
        assert solver.lp_witness(q).lasso == lasso
        monkeypatch.setattr(eqdesign.equilibria, "LASSO_LENGTH_CAP", 2)
        assert solver._euler_lasso(tree, edges, point) is None
        seen = self.unrolls(monkeypatch)
        witness = solver.lp_witness(q)
        assert seen == [False, False]
        assert witness.lasso == solver.realize(solver.query_oracle(q))
        self.certified_in_window(game, q, witness)

    def test_prefix_counts_toward_the_cap(self, monkeypatch):
        """The cap bounds prefix plus cycle."""
        game = gen_random_game(7, 2, 3, 2)
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2)
        solver = NashLassoSolver(game, None, 3)
        for tree, edges, point in self.vertices(solver, q):
            lasso = solver._euler_lasso(tree, edges, point)
            if lasso.prefix_states:
                break
        assert (len(lasso.prefix_states), len(lasso.cycle_states)) == (2, 2)
        monkeypatch.setattr(eqdesign.equilibria, "LASSO_LENGTH_CAP", 3)
        assert solver._euler_lasso(tree, edges, point) is None
        monkeypatch.setattr(eqdesign.equilibria, "LASSO_LENGTH_CAP", 4)
        assert solver._euler_lasso(tree, edges, point) == lasso

    def test_bound_above_the_cap_refused_before_any_solve(self, monkeypatch):
        """The cap bounds the length bound too: a solver at the cap is built,
        one above it is refused before any punishment is solved."""
        game = gen_random_game(7, 2, 3, 2)
        cap = eqdesign.equilibria.LASSO_LENGTH_CAP
        assert NashLassoSolver(game, None, cap).bound == cap
        monkeypatch.setattr(eqdesign.equilibria, "punishment_values", None)
        with pytest.raises(SolverLimitError, match=f"^lasso length bound {cap + 1} exceeds {cap}$"):
            NashLassoSolver(game, None, cap + 1)

    def test_witness_from_the_forced_resolve(self, monkeypatch):
        # The vertex's support is disconnected; forcing every move connects it.
        game = gen_random_game(5, 2, 3, 2)
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, Fraction(-2, 3), Fraction(-2, 3))
        solver = NashLassoSolver(game, None, 8)
        seen = self.unrolls(monkeypatch)
        witness = solver.lp_witness(q)
        assert seen[-2:] == [False, True]
        assert witness.lasso != solver.realize(solver.query_oracle(q))
        self.certified_in_window(game, q, witness)

    def test_witness_from_the_bounded_fallback(self, monkeypatch):
        game = gen_random_game(37, 2, 3, 2)
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, NEG_INF, Fraction(-3, 2))
        solver = NashLassoSolver(game, None, 4)
        seen = self.unrolls(monkeypatch)
        witness = solver.lp_witness(q)
        assert seen and not any(seen)
        assert witness.lasso == solver.realize(solver.query_oracle(q))
        self.certified_in_window(game, q, witness)

    def test_no_polytope_meets_the_window(self):
        """A designer window above every weight: no vertex, no witness."""
        game = gen_random_game(12, 2, 4, 2)
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, 100, 100)
        solver = NashLassoSolver(game, None, 12)
        assert not solver.lp_feasible(q)
        assert solver.lp_witness(q) is None

    def test_feasible_without_a_lasso_is_refused(self):
        """The LP meets the point window 1/2, but neither the unroll nor the
        bounded oracle finds a lasso there: a refusal, never a silent None."""
        game = gen_random_game(12, 2, 4, 2)
        q = ThresholdQuery((NEG_INF,) * 2, (POS_INF,) * 2, Fraction(1, 2), Fraction(1, 2))
        solver = NashLassoSolver(game, None, 12)
        assert solver.lp_feasible(q)
        assert solver.query_oracle(q) is None
        refusal = "threshold query is feasible but no witness was realized"
        with pytest.raises(SolverLimitError, match=refusal):
            solver.lp_witness(q)
        with pytest.raises(SolverLimitError, match=refusal):
            ne_threshold(game, q, backend="lp", bound=12)

    def test_realization_outside_the_window_is_refused(self, monkeypatch):
        """A realized lasso is certified, then checked against the window: an
        equilibrium lasso outside it is refused, never returned."""
        game = gen_example1()[0]
        solver = NashLassoSolver(game, None, 12)
        q = query1(Fraction(1), POS_INF)
        worst = solver.extreme_signature(False)
        assert solver.lp_feasible(q) and solver.witness(worst).global_payoff < 1
        outside = solver.realize(worst)
        monkeypatch.setattr(NashLassoSolver, "_lp_realize", lambda *args: outside)
        with pytest.raises(SolverLimitError, match="lp realization drifted out of bounds"):
            solver.lp_witness(q)

    def test_cycle_outside_the_tree_is_refused(self):
        """A cycle whose first state the record's breadth-first tree does not
        reach has no prefix there: a refusal, not a lasso of another record."""
        game = gen_example1()[0]
        solver = NashLassoSolver(game, None, 3)
        tree = solver._ceilings[0].tree
        assert sorted(tree) == [0]  # the first record reaches t alone
        # The t-l-m delivery loop, entered at l.
        lasso = solver.realize(solver.extreme_signature(True))
        assert lasso.cycle_states == (0, 1, 2)
        states, moves = lasso.cycle_states, lasso.cycle_moves
        with pytest.raises(SolverLimitError,
                           match="anchor unreachable while rebuilding the prefix"):
            solver._lasso(tree, states[1:] + states[:1], moves[1:] + moves[:1])


class TestDeviationMoves:
    """The arena's move table and response classes against one joint action
    and one deviation at a time."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5), st.integers(2, 3))
    def test_moves_expand_to_per_joint_deviations(self, seed, n_players, n_states, n_actions):
        game = gen_random_game(seed, n_players, n_states, n_actions)
        arena = game.arena
        for s, (moves, least) in enumerate(arena.deviation_moves):
            assert len(least) == len(set(moves)) == len(moves)
            of_joint = []
            for joint in arena.joint_actions(s):
                devs = tuple(tuple(sorted(deviation_successors(game, s, joint, i)))
                             for i in range(n_players))
                assert arena.deviations(s, joint) == devs
                m = moves.index((game.transitions[s, joint], devs))
                assert least[m] <= joint
                of_joint.append((joint, m))
            # Each move's least joint action is the first joint with that move.
            assert [next(j for j, k in of_joint if k == m) for m in range(len(moves))] == (
                list(least))

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5), st.integers(2, 3))
    def test_response_classes_keep_the_least_profile(self, seed, n_players, n_states,
                                                     n_actions):
        game = gen_random_game(seed, n_players, n_states, n_actions)
        for i in range(n_players):
            for s, classes in enumerate(game.arena.response_classes(i)):
                least = {}
                for joint in game.arena.joint_actions(s):
                    rmap = tuple(game.transitions[s, joint[:i] + (a,) + joint[i + 1:]]
                                 for a in game.protocol[i][s])
                    least.setdefault(rmap, joint)
                assert list(classes) == sorted(least.items())


class TestPackedWalk:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5),
           st.sampled_from([None, 0]), st.integers(1, 12))
    def test_matches_tuple_sweep_and_realizes(self, seed, n_players, n_states,
                                              fixed, bound):
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        check_against_sweep_oracle(game, fixed, bound)

    @settings(deadline=None)
    @given(st.integers(1, 10**15), st.integers(1, 12),
           st.lists(st.integers(-1, 1), min_size=1, max_size=5),
           st.lists(st.integers(-1, 1), min_size=1, max_size=5))
    def test_pack_round_trips_without_carries(self, top, bound, a, b):
        # Entries of +-top*bound in adjacent fields, in any sign pattern, plus
        # a second vector: sums stay exact even past the largest lasso sum.
        width = _field_width(top, bound)
        n = min(len(a), len(b))
        va = [top * bound * x for x in a[:n]]
        vb = [top * (bound - 1) * x for x in b[:n]]
        assert _unpack_sums(_pack_sums(va, width), width, n) == tuple(va)
        total = _pack_sums(va, width) + _pack_sums(vb, width)
        assert _unpack_sums(total, width, n) == tuple(x + y for x, y in zip(va, vb))

    @pytest.mark.parametrize("offset,global_factor", [
        (10**12, 1), (-(10**12) - 7, -(10**12)), (3**40, -(5**30)), (0, -(10**13)),
    ])
    @pytest.mark.parametrize("bound", [1, 3, 6])
    def test_huge_and_negative_weights(self, offset, global_factor, bound):
        game = gen_random_game(20, n_players=3, n_states=4)
        small = NashLassoSolver(game, None, bound).signatures()
        assert small
        big = check_against_sweep_oracle(
            reweighted(game, offset, global_factor), None, bound)
        assert sorted(big) == sorted(moved(rec, offset, global_factor) for rec in small)

    @pytest.mark.parametrize("bound", [1, 2, 12])
    def test_all_zero_weights(self, bound):
        game = gen_random_game(5, n_players=2, n_states=3, weight_range=(0, 0))
        sigs = check_against_sweep_oracle(game, None, bound)
        assert all(set(rec[3]) == {0} for rec in sigs)
        assert sigs or bound == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_global_weights(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=4)
        check_against_sweep_oracle(reweighted(game, 0, -1), 0, 6)

    def test_bound_one_closes_at_the_initial_state_only(self):
        game = reweighted(gen_random_game(4, n_players=2, n_states=3), 10**12)
        sigs = check_against_sweep_oracle(game, None, 1)
        assert sigs and all(rec[1] == game.initial and rec[2] == 1 for rec in sigs)

    def test_forged_signature_refused(self):
        game, _, _ = gen_example1()
        solver = NashLassoSolver(game, None, 4)
        ci, anchor, length, sums, prefix_len = solver.signatures()[0]
        # Entries too large for their field must not alias a real signature.
        forged = (sums[0] + (1 << solver._width),) + sums[1:]
        with pytest.raises(SolverLimitError, match="realizable"):
            solver.realize((ci, anchor, length, forged, prefix_len))

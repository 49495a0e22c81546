import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqdesign.benchmarks import (
    CostDigraph,
    gen_hamiltonian_complement_game,
    gen_random_game,
    gen_random_strategy,
)
from eqdesign.games import (
    Arena,
    MealyStrategy,
    StrategyProfile,
    mean_payoff,
    run_profile,
)
from eqdesign.rewards import from_subsidy_scheme, implement
from eqdesign.zerosum import (
    PunishmentResult,
    SolverLimitError,
    _coalition_credits,
    _strict_dual,
    _warm_start,
    best_response_value,
    max_mean_value_function,
    punishment_values,
)
import eqdesign.zerosum as zerosum

from conftest import constant_strategy
from lifting_oracle import one_sided_credits
from max_mean_oracle import brute_force_max_mean
from punishment_oracle import brute_force_punishment, dict_coalition


def rooted_at(game, s: int):
    """``game`` with the same names and weights, played from state ``s``."""
    return dataclasses.replace(game, arena=Arena(s, game.protocol, game.transitions))


def witness_values(game, pun: PunishmentResult) -> tuple[Fraction, ...]:
    """Deviator's best response per state against the positional coalition."""
    coalition = tuple(i for i in range(game.n_players) if i != pun.player)
    others = StrategyProfile(coalition, tuple(
        MealyStrategy(1, 0, ((0,) * game.n_states,),
                      (tuple(pun.coalition[s][i] for s in range(game.n_states)),))
        for i in coalition
    ))
    return tuple(best_response_value(rooted_at(game, s), others, pun.player)
                 for s in range(game.n_states))


class TestMaxMeanCycle:
    """Nodes carry the weights; a node's value is its best reachable cycle mean."""

    def test_single_self_loop(self):
        assert max_mean_value_function([[0]], [5]) == [5]

    def test_picks_better_of_two_cycles(self):
        # a=0 -> b=1, c=2; cycles (a, b) of mean 1/2 and (c, d) of mean 1.
        succs = [[1, 2], [0], [3], [2]]
        assert max_mean_value_function(succs, [1, 0, 1, 1])[0] == 1

    def test_unreachable_cycle_ignored(self):
        # a=0 <-> b=1, and z=2 on its own self-loop.
        assert max_mean_value_function([[1], [0], [2]], [0, 0, 99]) == [0, 0, 99]

    def test_reachable_dead_end_rejected(self):
        with pytest.raises(ValueError):
            max_mean_value_function([[1], []], [1, 0])

    @pytest.mark.parametrize("succs,weight,expected", [
        # A self-loop beside a two-cycle, fed by a state with no cycle of its own.
        ([[1, 2], [1], [3], [2]], [9, -1, 4, -4], [0, -1, 0, 0]),
        # Three layers: 0 -> the two-cycle {1, 2} -> 3 on a self-loop.
        ([[1], [2], [1, 3], [3]], [-3, 5, 1, 2], [3, 3, 3, 2]),
        # Negative weights only, and a chain of acyclic states into one cycle.
        ([[1], [2], [3], [4], [3]], [-1, -2, -3, -5, -7], [-6] * 5),
    ])
    def test_layered_components(self, succs, weight, expected):
        assert max_mean_value_function(succs, weight) == expected
        assert brute_force_max_mean(succs, weight) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_simple_cycle_brute_force(self, seed):
        """Node by node against the simple-cycle reference, on graphs of 1-8
        nodes whose edges mostly lead to lower nodes: layers of components,
        self-loops, acyclic states feeding cycles, negative weights."""
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 8)
            succs = []
            for v in range(n):
                down = v > 0 and rng.random() < 0.7
                succs.append(sorted({rng.randrange(v) if down and rng.random() < 0.8
                                     else rng.randrange(n)
                                     for _ in range(rng.randint(1, 3))}))
            weight = [rng.randint(-4, 4) for _ in range(n)]
            assert max_mean_value_function(succs, weight) == \
                brute_force_max_mean(succs, weight)

    def test_delivery_product_reward_rate(self, example1_products):
        product, _ = example1_products
        succs = [sorted({succ for _, succ in product.arena.moves(s)})
                 for s in range(product.n_states)]
        values = max_mean_value_function(succs, product.weights[0])
        assert values[product.initial] == Fraction(1, 3)


class TestBestResponse:
    def test_zero_weights_give_zero(self, example1):
        game, _, _ = example1
        empty = StrategyProfile((), ())
        assert best_response_value(game, empty, 0) == 0

    def test_one_player_product(self, example1_products):
        product, _ = example1_products
        assert best_response_value(product, StrategyProfile((), ()), 0) == Fraction(1, 3)

    def test_pennies_tail_with_constant_opponent(self):
        """With the opposing coin fixed, the matching player collects its
        square/triangle weight forever."""
        tri = CostDigraph(("v1", "v2", "v3"),
                          (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))
        game = gen_hamiltonian_complement_game(tri)
        n = game.n_players
        p_square = game.player_names.index("p4")
        others = StrategyProfile(
            tuple(i for i in range(n) if i != p_square),
            tuple(constant_strategy(game, i) for i in range(n) if i != p_square),
        )
        assert best_response_value(game, others, p_square) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_response_dominates_conforming(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        profile = StrategyProfile(
            (0, 1),
            (gen_random_strategy(game, 0, seed),
             gen_random_strategy(game, 1, seed + 3)),
        )
        lasso = run_profile(game, profile)
        for i in range(2):
            br = best_response_value(game, profile.without(i), i)
            assert br >= mean_payoff(game.weights[i], lasso)


class TestPunishment:
    def test_one_player_equals_best_achievable(self, example1):
        game, _, _ = example1
        pun = punishment_values(game, 0)
        assert pun.values == (Fraction(0),) * game.n_states

    def test_delivery_product_pun_is_reward_rate(self, example1_products):
        product, _ = example1_products
        pun = punishment_values(product, 0)
        assert set(pun.values) == {Fraction(1, 3)}

    def test_a1_values(self, a1_game):
        for player in range(2):
            pun = punishment_values(a1_game, player)
            assert set(pun.values) == {Fraction(1, 4)}

    def test_bounded_by_weight_range(self, a1_game):
        for player in range(2):
            pun = punishment_values(a1_game, player)
            lo = min(a1_game.weights[player])
            hi = max(a1_game.weights[player])
            assert all(lo <= v <= hi for v in pun.values)

    @pytest.mark.parametrize("seed", range(10))
    def test_backends_agree(self, seed):
        """The solver and the brute-force oracle give the same values."""
        game = gen_random_game(seed, n_players=2, n_states=3)
        for player in range(2):
            assert punishment_values(game, player).values == \
                brute_force_punishment(game, player)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_iteration_cross_check(self, seed):
        """The returned positional coalition holds the deviator to exactly
        the punishment value from every state."""
        game = gen_random_game(seed, n_players=2, n_states=3, n_actions=2)
        for player in range(2):
            pun = punishment_values(game, player)
            assert witness_values(game, pun) == pun.values

    @pytest.mark.parametrize("seed", range(8))
    def test_no_commitment_helps_the_target(self, seed):
        """Any concrete coalition commitment gives the deviating player at
        least the punishment value."""
        game = gen_random_game(seed, n_players=2, n_states=3)
        for player in range(2):
            pun = punishment_values(game, player)
            coalition = [i for i in range(2) if i != player]
            for cs in range(3):
                others = StrategyProfile(
                    tuple(coalition),
                    tuple(gen_random_strategy(game, i, seed + 11 * cs) for i in coalition),
                )
                for s in range(game.n_states):
                    br = best_response_value(rooted_at(game, s), others, player)
                    assert pun.values[s] <= br

    @pytest.mark.parametrize("seed", range(6))
    def test_denominators_within_bipartite_size(self, seed):
        game = gen_random_game(seed, n_players=3, n_states=3, n_actions=2)
        for player in range(3):
            pun = punishment_values(game, player)
            profiles = 1
            for i in range(3):
                if i != player:
                    profiles = max(profiles, 4)
            bipartite = game.n_states * (1 + 4 * profiles)
            assert all(v.denominator <= bipartite for v in pun.values)

    def test_three_player_backends_agree(self):
        for seed in range(4):
            game = gen_random_game(seed + 50, n_players=3, n_states=3, n_actions=2)
            for player in range(3):
                assert punishment_values(game, player).values == \
                    brute_force_punishment(game, player)

    @pytest.mark.parametrize("seed", [123, 124, 125])
    def test_all_three_backends_at_full_scale(self, seed):
        game = gen_random_game(seed, n_players=3, n_states=4, n_actions=2)
        for player in range(3):
            pun = punishment_values(game, player)
            assert pun.values == brute_force_punishment(game, player)
            assert witness_values(game, pun) == pun.values

    def test_policy_iteration_reproducer(self):
        """Policy iteration once returned (1, 1, 1, 1) here."""
        pun = punishment_values(gen_random_game(12, 2, 4, 2), 1)
        assert pun.values == (-1, 0, 0, -1)

    # Seeded games of gen_random_game(seed, 2, 4 + seed % 3, 2) on which
    # policy iteration returned wrong values or stopped off the fixpoint.
    @pytest.mark.parametrize("seed,player", [
        (12, 1), (25, 1), (40, 1), (46, 0), (49, 0), (67, 0), (71, 0), (83, 0),
        (104, 0), (134, 1), (137, 0), (193, 1), (197, 0), (209, 1), (218, 0),
        (267, 1), (274, 0), (289, 0), (304, 1), (310, 1), (322, 1), (329, 0),
        (329, 1), (346, 1), (350, 0),
    ])
    def test_policy_iteration_disagreements(self, seed, player):
        game = gen_random_game(seed, 2, 4 + seed % 3, 2)
        pun = punishment_values(game, player)
        assert pun.values == brute_force_punishment(game, player)
        assert witness_values(game, pun) == pun.values

    def test_failed_witness_check_raises(self, monkeypatch):
        def off_by_one(succs, weight):
            return [v + 1 for v in max_mean_value_function(succs, weight)]

        monkeypatch.setattr("eqdesign.zerosum.max_mean_value_function", off_by_one)
        with pytest.raises(SolverLimitError, match="witness"):
            punishment_values(gen_random_game(12, 2, 4, 2), 1)

    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5))
    def test_matches_oracle_and_witness_holds(self, seed, n_players, n_states):
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        for player in range(n_players):
            pun = punishment_values(game, player)
            assert pun.values == brute_force_punishment(game, player)
            assert witness_values(game, pun) == pun.values

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4))
    def test_levels_ranks_and_coalition(self, seed, n_players, n_states):
        """Levels are the distinct values ascending, each value is its rank's
        level (the same object), and the joint-action witness agrees with
        its per-state dict form on every punisher."""
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        for player in range(n_players):
            pun = punishment_values(game, player)
            assert pun.levels == tuple(sorted(set(pun.values)))
            assert all(type(r) is int for r in pun.ranks)
            assert all(pun.values[s] is pun.levels[r] for s, r in enumerate(pun.ranks))
            for joint, old in zip(pun.coalition, dict_coalition(game, player, pun.values),
                                  strict=True):
                assert len(joint) == n_players
                assert {j: joint[j] for j in range(n_players) if j != player} == old

    # Candidates are computed on demand, so a weight range of 10^5 costs
    # nothing by itself; these games also keep the energy-game lifting short.
    @pytest.mark.parametrize("seed,player", [(3, 0), (4, 0), (4, 1), (5, 0)])
    def test_wide_weight_range(self, seed, player):
        game = gen_random_game(seed, 2, 3, weight_range=(0, 10**5))
        pun = punishment_values(game, player)
        assert pun.values == brute_force_punishment(game, player)
        assert witness_values(game, pun) == pun.values

    # The energy games of these two took 1.2 s and 4.3 s while the coalition
    # was lifted alone: its losing credits climbed to ``top`` one small cycle
    # deficit at a time.
    @pytest.mark.parametrize("seed,hi,values", [
        (0, 10**5, (28835, 28974, 28974)),
        (3, 10**6, (584737, 762698, 352690)),
    ])
    def test_wide_range_lifting(self, seed, hi, values):
        game = gen_random_game(seed, 2, 3, 2, weight_range=(0, hi))
        start = time.monotonic()
        pun = punishment_values(game, 0)
        elapsed = time.monotonic() - start
        assert pun.values == values
        assert elapsed < 0.5
        assert pun.values == brute_force_punishment(game, 0)


def predecessors(moves):
    preds = [set() for _ in moves]
    for s, classes in enumerate(moves):
        for cls in classes:
            for u in cls:
                preds[u].add(s)
    return preds


@st.composite
def energy_games(draw):
    """Class structures over 1-6 states (self-loops allowed) with integer
    gains that are mixed, all nonnegative (the coalition wins everywhere) or
    all negative (it loses everywhere); width 0 gives zero gains."""
    n = draw(st.integers(1, 6))
    cls = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted)
    moves = draw(st.lists(st.lists(cls, min_size=1, max_size=3), min_size=n, max_size=n))
    width = draw(st.sampled_from([0, 1, 3, 40, 1000]))
    lo, hi = draw(st.sampled_from([(-width, width), (0, width), (-width - 1, -1)]))
    return moves, draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))


ONE_STATE_WIN = ([[[0]]], [3])
ONE_STATE_LOSE = ([[[0]]], [-3])
ZERO_GAINS = ([[[0, 1]], [[0], [1]]], [0, 0])
# A two-state loop losing 1 per lap beside a state whose loss puts ``top``
# at 6,002: the one-sided lifting takes 10,008 pops, the lockstep 22.
SLOW_LOSS = ([[[1]], [[0]], [[2]]], [1000, -1001, -5000])
# As above, plus a state that wins by a self-loop: 10,009 pops against 33.
MIXED = ([[[0], [1]], [[2]], [[1]], [[3]]], [0, 500, -501, -5000])
# The dual finishes while state 7 is off the worklist; its credit is right
# (24, not 8) only if raising the losers to ``top`` requeues their
# predecessors.  Found by random search; 5,000 drawn games missed it.
REQUEUE = ([[[2], [2, 4]], [[6]], [[2]], [[1], [2, 8]], [[2, 6]], [[3, 8], [5]],
            [[5], [3]], [[1, 3], [0]], [[2, 6]]],
           [-16, 17, -17, -16, 9, -1, 19, -8, 1])


class TestLifting:
    @settings(deadline=None)
    @given(energy_games())
    @example(ONE_STATE_WIN)
    @example(ONE_STATE_LOSE)
    @example(ZERO_GAINS)
    @example(SLOW_LOSS)
    @example(MIXED)
    @example(REQUEUE)
    def test_matches_one_sided_lifting(self, game):
        moves, gain = game
        preds = predecessors(moves)
        assert _coalition_credits(moves, preds, gain) == one_sided_credits(moves, preds, gain)

    @settings(deadline=None)
    @given(energy_games())
    @example(ONE_STATE_WIN)
    @example(ONE_STATE_LOSE)
    @example(ZERO_GAINS)
    @example(SLOW_LOSS)
    @example(MIXED)
    def test_dual_winners_are_coalition_losers(self, game):
        moves, gain = game
        preds = predecessors(moves)
        credit, top = one_sided_credits(moves, preds, gain)
        dual = _strict_dual(moves, preds, gain)
        assert dual.run()
        winners = {s for s in range(len(moves)) if dual.credit[s] < dual.top}
        assert winners == {s for s in range(len(moves)) if credit[s] == top}

    @pytest.mark.parametrize("game", [SLOW_LOSS, MIXED, REQUEUE])
    def test_dual_finishes_first_on_slow_losses(self, game, monkeypatch):
        duals = []

        def recording(*args):
            duals.append(_strict_dual(*args))
            return duals[-1]

        monkeypatch.setattr(zerosum, "_strict_dual", recording)
        moves, gain = game
        preds = predecessors(moves)
        assert _coalition_credits(moves, preds, gain) == one_sided_credits(moves, preds, gain)
        assert len(duals) == 1 and not duals[0].work


def energy_arena(game, player):
    """The coalition's classes and their predecessors, as the solver builds them."""
    moves = [[sorted(set(rmap)) for rmap, _ in classes]
             for classes in game.arena.response_classes(player)]
    return moves, predecessors(moves)


def candidates(game, player) -> list[tuple[int, int]]:
    """Every candidate value ``p/q`` in lowest terms, ``q <= n``, between the
    player's least and greatest weight, ascending."""
    w = game.weights[player]
    values = {Fraction(p, q) for q in range(1, game.n_states + 1)
              for p in range(min(w) * q, max(w) * q + 1)}
    return [(x.numerator, x.denominator) for x in sorted(values)]


def seeded_game(seed):
    """A seeded game of 2-4 players and 2-8 states, weights within +-5, and
    one of its players."""
    rng = random.Random(seed)
    n_players = rng.randint(2, 4)
    game = gen_random_game(seed, n_players, rng.randint(2, 8), weight_range=(-5, 5))
    return game, rng.randrange(n_players)


def lifted_candidates(monkeypatch, weights) -> list[tuple[int, int]]:
    """Records each candidate ``p/q`` whose energy game a solve lifts, read
    back from its gains ``p - q*w``."""
    lo, hi = min(weights), max(weights)
    lifted = []

    def recording(moves, preds, gain, start=None):
        q = (gain[weights.index(lo)] - gain[weights.index(hi)]) // (hi - lo) if hi > lo else 1
        lifted.append((gain[weights.index(lo)] + q * lo, q))
        return _coalition_credits(moves, preds, gain, start)

    monkeypatch.setattr(zerosum, "_coalition_credits", recording)
    return lifted


class TestWarmStart:
    """Least measures scale with the gains: the measure at a larger candidate,
    scaled to a smaller one and rounded up, is a start at or below the
    smaller one's, from which its lifting ends on its cold measure."""

    @pytest.mark.parametrize("seed", range(16))
    def test_scaled_credits_lift_to_the_cold_measure(self, seed, monkeypatch):
        game, player = seeded_game(seed)
        weights = game.weights[player]
        solved = lifted_candidates(monkeypatch, weights)
        punishment_values(game, player)
        assert solved
        moves, preds = energy_arena(game, player)

        def cold(p, q):
            return one_sided_credits(moves, preds, [p - q * w for w in weights])

        measures = {pq: cold(*pq) for pq in solved}
        for p, q in candidates(game, player):
            credit, top = cold(p, q)
            for (p_above, q_above), (above, top_above) in measures.items():
                if p_above * q <= p * q_above:
                    continue
                start = _warm_start(above, top_above, q_above, q, top)
                for c, a in zip(start, above):
                    # Nothing is lost to rounding, and no finite start needs a cap.
                    if a == top_above:
                        assert c == top
                    else:
                        assert c * q_above >= a * q and c - 1 < Fraction(a * q, q_above)
                        assert c < top
                assert all(map(int.__le__, start, credit))
                gain = [p - q * w for w in weights]
                assert _coalition_credits(moves, preds, gain, start) == (credit, top)


def subsidy_products(game):
    """The product of the scheme paying nothing, then those of every unit
    subsidy scheme on one state or on two: all one arena."""
    units = [(s, tuple(int(j == i) for j in range(game.n_players)))
             for s in range(game.n_states) for i in range(game.n_players)]
    schemes = [{}] + [{s: v} for s, v in units]
    schemes += [{s1: v1, s2: v2} for k, (s1, v1) in enumerate(units)
                for s2, v2 in units[k + 1:] if s1 != s2]
    return [implement(game, from_subsidy_scheme(game, kappa)) for kappa in schemes]


def with_row(game, player, row):
    weights = list(game.weights)
    weights[player] = tuple(row)
    return dataclasses.replace(game, weights=tuple(weights))


class TestRelatedSolve:
    """A solve given an earlier solve on a row pointwise below its own searches
    each state between the earlier value and that value plus the largest
    weight increase, and finds the cold solve's values and witness."""

    @pytest.mark.parametrize("seed,n_players,n_states", [
        (0, 2, 2), (1, 2, 3), (2, 3, 3), (3, 2, 4), (4, 3, 2)])
    def test_every_subsidy_product(self, seed, n_players, n_states):
        """Each product's solve, given each earlier product's solve of a row
        at or below its own (the unsubsidised one's among them)."""
        products = subsidy_products(gen_random_game(seed, n_players, n_states))
        assert all(product.arena is products[0].arena for product in products)
        for i in range(n_players):
            solved = []
            for product in products:
                row, cold = product.weights[i], punishment_values(product, i)
                below = [related for related in solved if all(map(int.__le__, related[0], row))]
                assert below or not solved
                for related in below:
                    assert punishment_values(product, i, related) == cold
                solved.append((row, cold))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_rows_below(self, seed):
        rng = random.Random(seed)
        game, player = seeded_game(seed)
        slack = rng.randint(2, 6)
        raised = with_row(game, player, [w + rng.randint(0, slack)
                                         for w in game.weights[player]])
        related = (game.weights[player], punishment_values(game, player))
        assert (punishment_values(raised, player, related)
                == punishment_values(raised, player))

    @pytest.mark.parametrize("seed", range(10))
    def test_base_values_below_the_new_least_weight(self, seed, monkeypatch):
        """The search starts at the least weight, not below it."""
        game, player = seeded_game(seed)
        base = punishment_values(game, player)
        least = math.floor(max(base.values)) + 1
        raised = with_row(game, player, [max(w, least) for w in game.weights[player]])
        assert max(base.values) < min(raised.weights[player])
        cold = punishment_values(raised, player)
        lifted = lifted_candidates(monkeypatch, raised.weights[player])
        assert punishment_values(raised, player, (game.weights[player], base)) == cold
        assert lifted and all(p >= least * q for p, q in lifted)

    def test_unrelated_solves_refused(self):
        game = gen_random_game(1, 2, 3)
        row = game.weights[0]
        base = punishment_values(game, 0)
        above = tuple(w + 1 for w in row)
        for related in [(above, base), (row[:-1], base), (row, punishment_values(game, 1))]:
            with pytest.raises(ValueError, match="related solve"):
                punishment_values(game, 0, related)

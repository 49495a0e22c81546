import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    best_response_value,
    max_mean_value_function,
    punishment_values,
    strongly_connected_components,
)
import eqdesign.zerosum as zerosum

from conftest import constant_strategy
from max_mean_oracle import brute_force_max_mean
from punishment_oracle import brute_force_punishment


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


# Digraphs of 0-12 nodes: rows may be empty, loop on their node or repeat an edge.
digraphs = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, max(n - 1, 0)), max_size=5), min_size=n, max_size=n))


class TestStronglyConnectedComponents:
    """The contract the callers read: a partition into mutually reaching
    nodes, each edge going to its own component or an earlier one."""

    @settings(deadline=None, max_examples=300)
    @given(digraphs)
    def test_partition_by_mutual_reach_sinks_first(self, succs):
        n = len(succs)
        comps = strongly_connected_components(succs)
        assert sorted(v for comp in comps for v in comp) == list(range(n))
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        reach = []
        for v in range(n):
            seen = {v}
            frontier = [v]
            for u in frontier:
                for t in succs[u]:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            reach.append(seen)
        for u in range(n):
            for v in range(n):
                assert (comp_of[u] == comp_of[v]) == (v in reach[u] and u in reach[v])
        for v, ts in enumerate(succs):
            for t in ts:
                assert comp_of[t] <= comp_of[v]

    def test_long_path_stays_iterative(self):
        n = 50_000
        succs = [[v + 1] for v in range(n - 1)] + [[]]
        assert strongly_connected_components(succs) == [[v] for v in reversed(range(n))]

    def test_long_cycle_stays_iterative(self):
        n = 50_000
        comps = strongly_connected_components([[(v + 1) % n] for v in range(n)])
        assert len(comps) == 1 and sorted(comps[0]) == list(range(n))


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
        self-loops, acyclic states feeding cycles, negative weights, and
        repeated successors, as best-response graphs have."""
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 8)
            succs = []
            for v in range(n):
                down = v > 0 and rng.random() < 0.7
                succs.append([rng.randrange(v) if down and rng.random() < 0.8
                              else rng.randrange(n)
                              for _ in range(rng.randint(1, 3))])
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

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_on_configurations(self, seed):
        """Each player against the others' random strategies of 1-3 memory
        states, on 2-3 player games of 2-4 states: the value is the best
        simple cycle reachable in a (state, coalition memories) graph built
        here, numbered in sorted order."""
        rng = random.Random(seed)
        game = gen_random_game(seed, n_players=rng.randint(2, 3), n_states=rng.randint(2, 4))
        for player in range(game.n_players):
            coalition = [p for p in range(game.n_players) if p != player]
            strats = [gen_random_strategy(game, p, seed, rng.randint(1, 3)) for p in coalition]
            root = (game.initial, tuple(st.initial for st in strats))
            graph = {root: []}
            todo = [root]
            while todo:
                s, mems = config = todo.pop()
                next_mems = tuple(st.step[m][s] for st, m in zip(strats, mems))
                for a in game.protocol[player][s]:
                    acts = dict(zip(coalition, (st.act[m][s] for st, m in zip(strats, mems))))
                    acts[player] = a
                    joint = tuple(acts[i] for i in range(game.n_players))
                    succ = (game.transitions[s, joint], next_mems)
                    graph[config].append(succ)
                    if succ not in graph:
                        graph[succ] = []
                        todo.append(succ)
            order = sorted(graph)
            index = {config: k for k, config in enumerate(order)}
            succs = [[index[c] for c in graph[config]] for config in order]
            weight = [game.weights[player][s] for s, _ in order]
            expected = brute_force_max_mean(succs, weight)[index[root]]
            others = StrategyProfile(tuple(coalition), tuple(strats))
            assert best_response_value(game, others, player) == expected


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
        with pytest.raises(SolverLimitError, match="do not meet at the computed values"):
            punishment_values(gen_random_game(12, 2, 4, 2), 1)

    @pytest.mark.parametrize("seed,player", [(12, 1), (25, 1), (40, 1), (46, 0)])
    def test_improvement_cut_short_is_refused(self, seed, player, monkeypatch):
        """Kept at its first commitment, the coalition does not hold these
        policy-iteration reproducers to their values, and the deviator's
        side of the proof refuses the result."""
        monkeypatch.setattr(zerosum, "_improve", lambda *args: False)
        with pytest.raises(SolverLimitError, match="do not meet at the computed values"):
            punishment_values(gen_random_game(seed, 2, 4 + seed % 3, 2), player)

    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 5),
           st.sampled_from([(0, 0), (0, 1), (-1, 0), (-1, 1), (-2, 2)]))
    def test_matches_oracle_and_witness_holds(self, seed, n_players, n_states, weight_range):
        """Degenerate weight ranges make many ties and zero cycles."""
        game = gen_random_game(seed, n_players=n_players, n_states=n_states,
                               weight_range=weight_range)
        for player in range(n_players):
            pun = punishment_values(game, player)
            assert pun.values == brute_force_punishment(game, player)
            assert witness_values(game, pun) == pun.values

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4))
    def test_levels_ranks_and_coalition(self, seed, n_players, n_states):
        """Levels are the distinct values ascending, each value is its rank's
        level (the same object), and the joint-action witness holds the
        deviator to the values."""
        game = gen_random_game(seed, n_players=n_players, n_states=n_states)
        for player in range(n_players):
            pun = punishment_values(game, player)
            assert pun.levels == tuple(sorted(set(pun.values)))
            assert all(type(r) is int for r in pun.ranks)
            assert all(pun.values[s] is pun.levels[r] for s, r in enumerate(pun.ranks))
            assert all(len(joint) == n_players for joint in pun.coalition)
            assert witness_values(game, pun) == pun.values

    # Strategy improvement never lists candidate values, so a weight range
    # of 10^5 costs nothing by itself.
    @pytest.mark.parametrize("seed,player", [(3, 0), (4, 0), (4, 1), (5, 0)])
    def test_wide_weight_range(self, seed, player):
        game = gen_random_game(seed, 2, 3, weight_range=(0, 10**5))
        pun = punishment_values(game, player)
        assert pun.values == brute_force_punishment(game, player)
        assert witness_values(game, pun) == pun.values

    # An energy-game solver once took 1.2 s and 4.3 s on these two: its
    # losing credits climbed one small cycle deficit at a time.
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



def seeded_game(seed):
    """A seeded game of 2-4 players and 2-8 states, weights within +-5, and
    one of its players."""
    rng = random.Random(seed)
    n_players = rng.randint(2, 4)
    game = gen_random_game(seed, n_players, rng.randint(2, 8), weight_range=(-5, 5))
    return game, rng.randrange(n_players)


def assert_bracketed(below, above, rise):
    """Each value of ``above`` lies between its value in ``below`` and that
    value plus ``rise``."""
    assert below.player == above.player
    assert all(v <= u <= v + rise for v, u in zip(below.values, above.values, strict=True))


class TestRelatedSolve:
    """Solves of one player on related rows of one arena, one pointwise at
    or below the other: values are monotone in the player's own weights and
    rise by at most the largest weight increase.  Each solve is its own;
    the relation checks the solver on games too large for the brute-force
    oracle."""

    @pytest.mark.parametrize("seed,n_players,n_states", [
        (0, 2, 2), (1, 2, 3), (2, 3, 3), (3, 2, 4), (4, 3, 2)])
    def test_every_subsidy_product(self, seed, n_players, n_states):
        """Each product's solve against each earlier product's solve of a row
        at or below its own (the unsubsidised one's among them)."""
        products = subsidy_products(gen_random_game(seed, n_players, n_states))
        assert all(product.arena is products[0].arena for product in products)
        for i in range(n_players):
            solved = []
            for product in products:
                row, pun = product.weights[i], punishment_values(product, i)
                below = [(r, b) for r, b in solved if all(map(int.__le__, r, row))]
                assert below or not solved
                for r, b in below:
                    assert_bracketed(b, pun, max(map(int.__sub__, row, r)))
                solved.append((row, pun))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_rows_below(self, seed):
        rng = random.Random(seed)
        game, player = seeded_game(seed)
        rise = rng.randint(2, 6)
        raised = with_row(game, player, [w + rng.randint(0, rise)
                                         for w in game.weights[player]])
        pun = punishment_values(raised, player)
        assert_bracketed(punishment_values(game, player), pun, rise)
        assert witness_values(raised, pun) == pun.values

    @pytest.mark.parametrize("seed", range(10))
    def test_base_values_below_the_new_least_weight(self, seed):
        """Raised past every base value, the values start at the new least
        weight, inside the bracket."""
        game, player = seeded_game(seed)
        base = punishment_values(game, player)
        least = int(max(base.values)) + 1
        raised = with_row(game, player, [max(w, least) for w in game.weights[player]])
        assert max(base.values) < min(raised.weights[player])
        pun = punishment_values(raised, player)
        assert min(pun.values) >= least
        assert_bracketed(base, pun, max(map(int.__sub__, raised.weights[player],
                                            game.weights[player])))

    def test_unrelated_solves_refused(self):
        """A solve takes no earlier solve, related or not."""
        game = gen_random_game(1, 2, 3)
        with pytest.raises(TypeError):
            punishment_values(game, 0, (game.weights[0], punishment_values(game, 0)))

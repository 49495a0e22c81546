import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_random_game,
    gen_tsp_game,
)
from eqdesign.design import epsilon_worst_ne, exact_worst_ne
from eqdesign.equilibria import is_ne_outcome
from eqdesign.fileio import serialize_game
from eqdesign.games import GameStructureError, payoffs
from eqdesign.rewards import implement

from conftest import lasso_by_names
from lasso_walks import lasso_from_states

TRIANGLE = CostDigraph(("v1", "v2", "v3"),
                       (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))


def symmetric_triangle():
    costs = {}
    for e in complete_digraph(3).edges:
        pair = tuple(sorted(e))
        costs[e] = {("v1", "v2"): 1, ("v1", "v3"): 2, ("v2", "v3"): 3}[pair]
    return complete_digraph(3, costs)


class TestExample1:
    def test_bare_game_worst_is_zero(self, example1):
        game, _, _ = example1
        assert exact_worst_ne(game).global_payoff == 0

    def test_products_match_known_values(self, example1):
        game, m1, m2 = example1
        assert exact_worst_ne(implement(game, m1)).global_payoff == Fraction(2, 3)
        assert exact_worst_ne(implement(game, m2)).global_payoff == Fraction(5, 6)


class TestTspGame:
    def test_symmetric_triangle_floor_is_tour_cost(self):
        game = gen_tsp_game(symmetric_triangle())
        value = epsilon_worst_ne(game, Fraction(1))
        assert math.floor(value) == 6

    def test_skipping_a_city_is_not_an_equilibrium(self):
        costs = {e: 1 for e in complete_digraph(3).edges}
        game = gen_tsp_game(complete_digraph(3, costs))
        lasso = lasso_by_names(game, ["v1>v2", "v2>v1"])
        assert not is_ne_outcome(game, lasso)

    def test_negated_variant_for_best_value(self):
        from eqdesign.design import epsilon_best_ne

        game = gen_tsp_game(symmetric_triangle(), negated=True)
        value = epsilon_best_ne(game, Fraction(1))
        assert math.floor(-value) == 6

    def test_state_count_polynomial_in_edges(self):
        g = symmetric_triangle()
        game = gen_tsp_game(g)
        assert game.n_states == len(g.edges) + 1

    def test_balanced_multi_lap_can_undercut_tours(self):
        """The construction also sustains equal-share walks that lap cheap
        edges several times; their designer value can sit below every
        tour.  Kept as a characterization of the generator's behaviour."""
        verts = ("v1", "v2", "v3", "v4")
        costs = {
            ("v1", "v2"): 2, ("v1", "v3"): 1, ("v1", "v4"): 5,
            ("v2", "v1"): 4, ("v2", "v3"): 4, ("v2", "v4"): 3,
            ("v3", "v1"): 2, ("v3", "v2"): 9, ("v3", "v4"): 2,
            ("v4", "v1"): 7, ("v4", "v2"): 1, ("v4", "v3"): 1,
        }
        game = gen_tsp_game(complete_digraph(4, costs))
        best_tour = None
        for perm in itertools.permutations(verts[1:]):
            tour = (verts[0],) + perm
            c = sum(costs[(tour[i], tour[(i + 1) % 4])] for i in range(4))
            best_tour = c if best_tour is None else min(best_tour, c)
        worst = exact_worst_ne(game)
        assert worst is not None
        assert worst.global_payoff < best_tour
        assert is_ne_outcome(game, worst.lasso)

    def test_requires_costs(self):
        with pytest.raises(GameStructureError):
            gen_tsp_game(TRIANGLE)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, Fraction(1), "1", None])
    def test_non_int_cost_refused_naming_the_edge(self, bad):
        """A cost is refused, not cast: 1.5 and True would both become 1."""
        costs = {e: 1 for e in complete_digraph(3).edges}
        costs[("v2", "v3")] = bad
        with pytest.raises(GameStructureError, match=r"edge \(v2, v3\)"):
            complete_digraph(3, costs)
        with pytest.raises(GameStructureError, match=r"edge \(v2, v3\)"):
            CostDigraph(TRIANGLE.vertices, TRIANGLE.edges,
                        tuple((e, bad if e == ("v2", "v3") else 1) for e in TRIANGLE.edges))

    @pytest.mark.parametrize("cost", [0, 1, 9, -3, 10**20])
    def test_int_costs_kept(self, cost):
        costs = {e: cost for e in complete_digraph(3).edges}
        assert complete_digraph(3, costs).cost_map() == costs


class TestHamiltonianGames:
    def test_arena_shape(self):
        game = gen_hamiltonian_game(TRIANGLE)
        assert set(game.state_names[-3:]) == {"sink", "square", "triangle"}
        assert game.player_names[-2:] == ("p4", "p5")
        assert dict(game.meta)["delta"] == "1/2"

    def test_square_run_is_equilibrium_without_rewards(self):
        game = gen_hamiltonian_game(TRIANGLE)
        sq = game.state_names.index("square")
        sink = game.state_names.index("sink")
        first = game.initial
        lasso = lasso_from_states(game, [first, sink, sq], 2)
        assert is_ne_outcome(game, lasso)
        _, glob = payoffs(game, lasso)
        assert glob == 0

    def test_complement_sink_runs_never_equilibria(self):
        game = gen_hamiltonian_complement_game(TRIANGLE)
        for trap in ("square", "triangle"):
            lasso = lasso_from_states(
                game,
                [game.initial, game.state_names.index("sink"),
                 game.state_names.index(trap)],
                2,
            )
            assert not is_ne_outcome(game, lasso)


class TestInfiniteMemoryExample:
    def test_known_cycle_values(self, a1_game):
        l4 = lasso_by_names(a1_game, ["t", "l", "b", "r"])
        l6 = lasso_by_names(a1_game, ["t", "l", "l", "b", "r", "r"])
        assert payoffs(a1_game, l4)[1] == Fraction(-1, 4)
        assert payoffs(a1_game, l6)[1] == Fraction(-1, 3)
        assert is_ne_outcome(a1_game, l4)
        assert is_ne_outcome(a1_game, l6)

    def test_designer_value_decreases_with_loop_count(self, a1_game):
        values = []
        for k in range(1, 5):
            names = ["t"] + ["l"] * k + ["b"] + ["r"] * k
            lasso = lasso_by_names(a1_game, names)
            assert is_ne_outcome(a1_game, lasso)
            _, glob = payoffs(a1_game, lasso)
            assert glob == Fraction(-k, 2 * k + 2)
            values.append(glob)
        assert all(a > b for a, b in zip(values, values[1:]))


def fixed_costs(n):
    verts = [f"v{i}" for i in range(1, n + 1)]
    return complete_digraph(n, {(u, v): 1 + (3 * i + 5 * j) % 7
                                for i, u in enumerate(verts)
                                for j, v in enumerate(verts) if u != v})


OUT_STAR = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3")))


class TestGeneratedDocuments:
    """The generated documents are pinned byte for byte: the CLI, the
    reduction scripts and the benchmark all read them."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: gen_tsp_game(fixed_costs(3)),
         "3855f5c11bca9c6dcbcea22f4578c27d1706cac70404fbffd4d0125ea5c68e02"),
        (lambda: gen_tsp_game(fixed_costs(3), negated=True),
         "934c5ddc8b2445c636c1ac4da2097919e95c5b15e3757252c1602664d7f1c45b"),
        (lambda: gen_tsp_game(fixed_costs(4)),
         "1a65542eea9a9bdac87527ee322799ad19692d37ed3f18e9141f732ab33876e4"),
        (lambda: gen_tsp_game(fixed_costs(4), negated=True),
         "2598210ad7770f363dfd5a247463ffb049b2421684e6220a8e4c6ed6e8d751cd"),
        (lambda: gen_hamiltonian_game(TRIANGLE),
         "db3b209fbe8342fc7cf3a5ec652df58019031f2a282798f4fe612a54c554ed13"),
        (lambda: gen_hamiltonian_complement_game(TRIANGLE),
         "df38582f61e5075fbb9ea8d94e293870616cd71f42dc0da5855005d91d17df60"),
        (lambda: gen_hamiltonian_game(OUT_STAR),
         "8f90127df16c32ddceef3f6d576b8fb862f47090418dba9db63f21adc01618dc"),
        (lambda: gen_hamiltonian_complement_game(OUT_STAR),
         "da2f5e4635f24788f638bc42ba9c06935b5617ad01b587bd00f4487dede8160e"),
    ], ids=["tsp3", "tsp3-negated", "tsp4", "tsp4-negated", "hamiltonian-cycle",
            "complement-cycle", "hamiltonian-out-star", "complement-out-star"])
    def test_serialized_bytes_are_pinned(self, make, digest):
        assert hashlib.sha256(serialize_game(make()).encode()).hexdigest() == digest


class TestRandomGames:
    def test_same_seed_serializes_identically(self):
        a = serialize_game(gen_random_game(11, n_players=2, n_states=4))
        b = serialize_game(gen_random_game(11, n_players=2, n_states=4))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_game(gen_random_game(1))
        b = serialize_game(gen_random_game(2))
        assert a != b

    @pytest.mark.parametrize("seed", range(6))
    def test_outputs_validate(self, seed):
        game = gen_random_game(seed, n_players=3, n_states=4, n_actions=3)
        assert game.n_states == 4
        assert all(game.protocol[i][s]
                   for i in range(game.n_players) for s in range(game.n_states))

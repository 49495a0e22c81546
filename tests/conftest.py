import pytest

from eqdesign.benchmarks import gen_example1, gen_infinite_memory_example
from eqdesign.games import Game, MealyStrategy, make_game
from eqdesign.rewards import implement

from lasso_walks import lasso_from_states


@pytest.fixture(scope="session")
def example1():
    """Robot delivery game with its two delivery machines."""
    return gen_example1()


@pytest.fixture(scope="session")
def example1_products(example1):
    game, m1, m2 = example1
    return implement(game, m1), implement(game, m2)


@pytest.fixture(scope="session")
def a1_game():
    return gen_infinite_memory_example()


@pytest.fixture(scope="session")
def pennies_game():
    """Repeated matching pennies: a game with no Nash equilibrium.

    Player 1 wants the match state, player 2 the mismatch state; both are
    revisited through a neutral hub, so payoffs sum to 1/2 while each
    player can always secure 1/2 by best-responding - no profile survives.
    """
    states = ["hub", "match", "mismatch"]
    transitions = {
        "hub": {
            ("a", "a"): "match", ("b", "b"): "match",
            ("a", "b"): "mismatch", ("b", "a"): "mismatch",
        },
        "match": {("a", "a"): "hub", ("a", "b"): "hub",
                  ("b", "a"): "hub", ("b", "b"): "hub"},
        "mismatch": {("a", "a"): "hub", ("a", "b"): "hub",
                     ("b", "a"): "hub", ("b", "b"): "hub"},
    }
    return make_game(
        players=["p1", "p2"],
        actions=["a", "b"],
        states=states,
        initial="hub",
        protocol={s: {"p1": ["a", "b"], "p2": ["a", "b"]} for s in states},
        transitions=transitions,
        weights={
            "p1": {"hub": 0, "match": 1, "mismatch": 0},
            "p2": {"hub": 0, "match": 0, "mismatch": 1},
        },
        global_weights={"hub": 0, "match": 0, "mismatch": 0},
    )


def lasso_by_names(game: Game, names: list[str], cycle_from: int = 0):
    ids = [game.state_names.index(n) for n in names]
    return lasso_from_states(game, ids, cycle_from)


def constant_strategy(game: Game, player: int) -> MealyStrategy:
    """Memoryless strategy playing the least allowed action everywhere."""
    acts = tuple(game.protocol[player][s][0] for s in range(game.n_states))
    return MealyStrategy(1, 0, ((0,) * game.n_states,), (acts,))

"""Concrete game constructions used as fixtures and hardness benchmarks.

Every generator is deterministic: fixed inputs (or seeds) produce
byte-identical games.  The reductions keep their fresh symbols (``star``,
``circle``, ``sink``, ``square``, ``triangle``) as reserved state/action
names in the file format.
"""

from __future__ import annotations

import itertools as _it
import random as _random
from dataclasses import dataclass
from typing import Mapping

from .games import Game, GameStructureError, MealyStrategy, check_player, make_game
from .rewards import RewardMachine, k_cycle_delivery_rm


@dataclass(frozen=True)
class CostDigraph:
    """Directed graph with optional integer edge costs; no parallel edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    costs: tuple[tuple[tuple[str, str], int], ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise GameStructureError("duplicate vertices")
        for v in self.vertices:
            # ``>`` joins an edge's ends into its state name (_edge_state).
            if not v or ">" in v:
                raise GameStructureError(f"vertex name {v!r} is empty or contains '>'")
        if len(set(self.edges)) != len(self.edges):
            raise GameStructureError("parallel edges are not allowed")
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise GameStructureError(f"edge ({u}, {v}) uses unknown vertices")
        if self.costs is not None:
            covered = {e for e, _ in self.costs}
            if covered != set(self.edges):
                raise GameStructureError("costs must cover exactly the edges")
            for (u, v), cost in self.costs:
                # bool is an int subclass; it and floats are refused, not converted.
                if type(cost) is not int:
                    raise GameStructureError(f"edge ({u}, {v}): cost {cost!r} is not an int")

    def cost_map(self) -> dict[tuple[str, str], int]:
        if self.costs is None:
            raise GameStructureError("this construction needs edge costs")
        return dict(self.costs)

    def out_edges(self, v: str) -> list[tuple[str, str]]:
        return sorted(e for e in self.edges if e[0] == v)


def complete_digraph(n: int, costs: Mapping[tuple[str, str], int] | None = None) -> CostDigraph:
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple(sorted((u, v) for u in vertices for v in vertices if u != v))
    packed = None
    if costs is not None:
        packed = tuple(sorted((e, costs[e]) for e in edges))
    return CostDigraph(vertices, edges, packed)


def gen_example1() -> tuple[Game, RewardMachine, RewardMachine]:
    """The running four-location robot example with its two delivery machines.

    One player moves between t, l, m, r; the designer collects 1 for the l
    corridor and 2 for each delivery at m.  The first machine pays the robot
    1 per delivery cycle through l, the second 1 per two such cycles.
    """
    states = ["t", "l", "m", "r"]
    succ = {"t": ["l", "r"], "l": ["m", "t"], "m": ["t"], "r": ["m", "t"]}
    actions = [f"go_{s}" for s in states]
    protocol = {s: {"p1": [f"go_{d}" for d in sorted(succ[s])]} for s in states}
    transitions = {
        s: {(f"go_{d}",): d for d in succ[s]} for s in states
    }
    game = make_game(
        players=["p1"],
        actions=actions,
        states=states,
        initial="t",
        protocol=protocol,
        transitions=transitions,
        weights={"p1": {s: 0 for s in states}},
        global_weights={"t": 0, "l": 1, "m": 2, "r": 0},
    )
    return game, k_cycle_delivery_rm(game, 1), k_cycle_delivery_rm(game, 2)


def gen_infinite_memory_example() -> Game:
    """Two-player arena whose best designer value needs unbounded loops.

    Player 1 controls when to leave r, player 2 when to leave l; the global
    weight is the negation of player 1's, so longer mutual loops keep
    dragging the designer value down.
    """
    states = ["t", "l", "b", "r"]
    actions = ["go", "L", "R"]
    protocol = {
        "t": {"p1": ["go"], "p2": ["go"]},
        "l": {"p1": ["go"], "p2": ["L", "R"]},
        "b": {"p1": ["go"], "p2": ["go"]},
        "r": {"p1": ["L", "R"], "p2": ["go"]},
    }
    transitions = {
        "t": {("go", "go"): "l"},
        "l": {("go", "L"): "l", ("go", "R"): "b"},
        "b": {("go", "go"): "r"},
        "r": {("L", "go"): "t", ("R", "go"): "r"},
    }
    w1 = {"t": 0, "l": 1, "b": 0, "r": 0}
    w2 = {"t": 0, "l": 0, "b": 0, "r": 1}
    return make_game(
        players=["p1", "p2"],
        actions=actions,
        states=states,
        initial="t",
        protocol=protocol,
        transitions=transitions,
        weights={"p1": w1, "p2": w2},
        global_weights={s: -w1[s] for s in states},
    )


STAR = "star"
CIRCLE = "circle"
SINK = "sink"
SQUARE = "square"
TRIANGLE = "triangle"


def _edge_state(e: tuple[str, str]) -> str:
    return f"{e[0]}>{e[1]}"


def _tour_arena(g: CostDigraph, extras: bool) -> dict:
    """Arena and city weights shared by the tour and Hamiltonian games.

    States are the edges, then the sink.  The target city of the current
    edge picks the next edge, and any city playing ``star`` sends the play
    to the sink.  A city earns ``n`` on the edges into it and 1 at the sink
    and traps.  Without ``extras`` the sink is absorbing; with them, two
    extra players meet at the sink and move to the absorbing square when
    their actions match, to the absorbing triangle otherwise.  Returns the
    :func:`make_game` arguments but the global weights and the metadata.
    """
    if not g.edges:
        raise GameStructureError("tour games need a graph with at least one edge")
    n = len(g.vertices)
    players = list(g.vertices) + ([f"p{n + 1}", f"p{n + 2}"] if extras else [])
    edges = sorted(g.edges)
    edge_states = [_edge_state(e) for e in edges]
    traps = [SQUARE, TRIANGLE] if extras else []
    protocol: dict[str, dict[str, list[str]]] = {}
    transitions: dict[str, dict[tuple[str, ...], str]] = {}

    def fill(sname: str, owner: str | None, step) -> None:
        per_player = {
            p: sorted([_edge_state(d) for d in g.out_edges(p)] + [STAR])
            if p == owner else [CIRCLE, STAR]
            for p in players
        }
        protocol[sname] = per_player
        transitions[sname] = {joint: step(joint)
                              for joint in _it.product(*per_player.values())}

    for e, sname in zip(edges, edge_states):
        k = players.index(e[1])
        fill(sname, e[1], lambda joint, k=k: SINK if STAR in joint[:n] else joint[k])
    if extras:
        fill(SINK, None, lambda joint: SQUARE if joint[n] == joint[n + 1] else TRIANGLE)
    else:
        fill(SINK, None, lambda joint: SINK)
    for trap in traps:
        fill(trap, None, lambda joint, trap=trap: trap)
    weights = {
        p: {s: n if e[1] == p else 0 for e, s in zip(edges, edge_states)}
        | dict.fromkeys([SINK, *traps], 1)
        for p in g.vertices
    }
    return dict(players=players, actions=sorted({*edge_states, STAR, CIRCLE}),
                states=edge_states + [SINK, *traps], initial=edge_states[0],
                protocol=protocol, transitions=transitions, weights=weights)


def gen_tsp_game(g: CostDigraph, negated: bool = False) -> Game:
    """Tour game: worst equilibrium designer value = optimal tour cost.

    States are (edge, target) pairs plus a sink; the owner of the current
    city picks the next edge, anyone may bail to the sink, and skipped
    cities prefer bailing, so equilibria are exactly the fair tours (or the
    sink).  ``negated`` flips the global weights, turning the best-value
    variant into the same optimisation.
    """
    arena = _tour_arena(g, extras=False)
    costs = g.cost_map()
    n = len(g.vertices)
    global_weights = {_edge_state(e): c * n for e, c in sorted(costs.items())}
    global_weights[SINK] = max(costs.values()) * n
    if negated:
        global_weights = {s: -w for s, w in global_weights.items()}
    return make_game(**arena, global_weights=global_weights,
                     meta={"family": "tsp", "epsilon": "1"})


def gen_hamiltonian_game(g: CostDigraph) -> Game:
    """Strong-improvement reduction: budget 1 can force a pennies standoff.

    City players earn only on fair tours; the two extra players are pulled
    into a matching-pennies choice at the sink once rewards are placed on
    the square/triangle traps.  Fixed parameters budget=1, epsilon=1,
    delta=1/2 ride along as metadata.
    """
    arena = _tour_arena(g, extras=True)
    n = len(g.vertices)
    states = arena["states"]
    for p in arena["players"][n:]:
        arena["weights"][p] = {s: 0 for s in states}
    global_weights = {s: (0 if s in (SINK, SQUARE, TRIANGLE) else n) for s in states}
    return make_game(
        **arena, global_weights=global_weights,
        meta={"family": "hamiltonian", "budget": "1", "epsilon": "1", "delta": "1/2"},
    )


def gen_hamiltonian_complement_game(g: CostDigraph) -> Game:
    """Weak-improvement reduction: the pennies standoff is native here.

    The extra players already earn at square/triangle, so sink runs are
    never equilibria; paying one unit at the triangle reconciles them
    exactly when no fair tour exists.
    """
    arena = _tour_arena(g, extras=True)
    n = len(g.vertices)
    states = arena["states"]
    for p, trap in zip(arena["players"][n:], (SQUARE, TRIANGLE)):
        arena["weights"][p] = {s: (1 if s == trap else 0) for s in states}
    global_weights = {}
    for s in states:
        if s in (SINK, SQUARE):
            global_weights[s] = 0
        elif s == TRIANGLE:
            global_weights[s] = 2
        else:
            global_weights[s] = n
    return make_game(
        **arena, global_weights=global_weights,
        meta={"family": "hamiltonian-complement", "budget": "1",
              "epsilon": "1", "delta": "1/2"},
    )


def gen_random_game(seed: int, n_players: int = 2, n_states: int = 3,
                    n_actions: int = 2, weight_range: tuple[int, int] = (-2, 2)) -> Game:
    """Seeded random game; identical seeds and sizes yield identical games."""
    for name, count in (("players", n_players), ("states", n_states), ("actions", n_actions)):
        if count < 1:
            raise ValueError(f"{name}: {count} is not a positive count")
    rng = _random.Random(("eqdesign", seed, n_players, n_states, n_actions, weight_range).__repr__())
    players = [f"p{i + 1}" for i in range(n_players)]
    states = [f"s{k}" for k in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    lo, hi = weight_range

    protocol: dict[str, dict[str, list[str]]] = {}
    transitions: dict[str, dict[tuple[str, ...], str]] = {}
    for s in states:
        per_player = {}
        for p in players:
            size = rng.randint(1, n_actions)
            per_player[p] = sorted(rng.sample(actions, size))
        protocol[s] = per_player
        transitions[s] = {
            joint: rng.choice(states)
            for joint in _it.product(*(per_player[p] for p in players))
        }
    weights = {
        p: {s: rng.randint(lo, hi) for s in states} for p in players
    }
    global_weights = {s: rng.randint(lo, hi) for s in states}
    return make_game(
        players=players,
        actions=actions,
        states=states,
        initial=states[0],
        protocol=protocol,
        transitions=transitions,
        weights=weights,
        global_weights=global_weights,
        meta={"family": "random", "seed": str(seed)},
    )


def gen_random_rm(game: Game, seed: int, n_states: int = 2,
                  budget: int = 1) -> RewardMachine:
    """Seeded random reward machine within the budget for property suites."""
    rng = _random.Random(("eqdesign-rm", seed, n_states, budget).__repr__())
    vectors = [(0,) * game.n_players]
    if budget >= 1:
        vectors += [
            tuple(1 if j == i else 0 for j in range(game.n_players))
            for i in range(game.n_players)
        ]
    step_rows = []
    reward_rows = []
    for _ in range(n_states):
        step_rows.append(tuple(rng.randrange(n_states) for _ in range(game.n_states)))
        reward_rows.append(tuple(rng.choice(vectors) for _ in range(game.n_states)))
    return RewardMachine(
        state_names=tuple(f"q{k}" for k in range(n_states)),
        initial=0,
        step=tuple(step_rows),
        rewards=tuple(reward_rows),
    )


def gen_random_strategy(game: Game, player: int, seed: int,
                        n_memory: int = 2) -> MealyStrategy:
    """Seeded random valid strategy for one player."""
    check_player(game, player)
    rng = _random.Random(("eqdesign-strat", seed, player, n_memory).__repr__())
    step_rows = []
    act_rows = []
    for _ in range(n_memory):
        step_rows.append(tuple(rng.randrange(n_memory) for _ in range(game.n_states)))
        act_rows.append(tuple(
            rng.choice(game.protocol[player][s]) for s in range(game.n_states)
        ))
    return MealyStrategy(n_memory, 0, tuple(step_rows), tuple(act_rows))

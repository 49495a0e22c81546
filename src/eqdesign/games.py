"""Weighted concurrent game structures and exact mean-payoff evaluation.

A game couples a finite arena (initial state, per-player protocols, a total
transition function over joint actions) with names and integer weight
tables: one per player plus a designer-facing global table.  Plays are
evaluated by the mean payoff of the weight sequence they induce; since every
object this toolkit manipulates is ultimately periodic, the lim-inf average
always equals the average over the cycle.

States, actions and players are interned as integer ids; the string names
are kept only for I/O.  All structures are immutable after construction and
every operation here is pure, so values can be shared freely across
workers.  An :class:`Arena` builds its tables on first use and keeps them
while it lives, for every game on it (such as all subsidy-scheme products
of one game).  A function validates a caller's lasso, strategy or profile
against the game on entry, never one it has built from checked inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence


class GameStructureError(ValueError):
    """A game component violates a structural invariant."""


class InvalidLassoError(ValueError):
    """A lasso is not transition-consistent with its arena."""


class InvalidStrategyError(ValueError):
    """A strategy is incomplete or plays outside the protocol."""


@dataclass(frozen=True, eq=False)
class Arena:
    """Initial state, protocols and transitions: a game without names or weights.

    ``protocol[i][s]`` lists, ascending, the actions player ``i`` may use at
    ``s`` (never empty); ``transitions[s, joint]`` is total over them.  Checked
    once, on construction; ``names`` (players, actions, states) label errors.
    """

    initial: int
    protocol: tuple[tuple[tuple[int, ...], ...], ...]
    transitions: Mapping[tuple[int, tuple[int, ...]], int] = field(repr=False)
    names: InitVar[tuple[Sequence[str], Sequence[str], Sequence[str]] | None] = None

    def __post_init__(self, names) -> None:
        if not self.protocol or not self.protocol[0]:
            raise GameStructureError("games need at least one player and one state")
        n, m = len(self.protocol), self.n_states
        players, actions, states = names or (range(n), None, range(m))
        if not 0 <= self.initial < m:
            raise GameStructureError("initial state out of range")
        for i, row in enumerate(self.protocol):
            if len(row) != m:
                raise GameStructureError(f"player {players[i]!r}: tables must cover every state")
            for s, acts in enumerate(row):
                if not acts:
                    raise GameStructureError(
                        f"empty protocol for player {players[i]!r} at state {states[s]!r}")
        for s in range(m):
            for joint in self.joint_actions(s):
                succ = self.transitions.get((s, joint))
                if succ is None:
                    label = tuple(actions[a] for a in joint) if actions else joint
                    raise GameStructureError(
                        f"missing transition at state {states[s]!r} for joint action {label}")
                if not 0 <= succ < m:
                    raise GameStructureError("transition target out of range")

    @property
    def n_states(self) -> int:
        return len(self.protocol[0])

    def joint_actions(self, state: int) -> Iterator[tuple[int, ...]]:
        """All protocol-allowed joint actions at ``state``, lexicographic."""
        return itertools.product(*(row[state] for row in self.protocol))

    def moves(self, state: int) -> list[tuple[tuple[int, ...], int]]:
        return [(joint, self.transitions[(state, joint)]) for joint in self.joint_actions(state)]

    def reachable_states(self) -> list[int]:
        """States reachable from the initial state."""
        seen = {self.initial}
        frontier = list(seen)
        while frontier:
            for _, succ in self.moves(frontier.pop()):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return sorted(seen)

    @cached_property
    def _tables(self):
        return _arena_tables(self)

    @property
    def deviation_moves(self) -> tuple:
        """Per state: its distinct ``(successor, deviation sets)`` moves and
        their least joint actions, in :meth:`joint_actions` order.  A deviation
        set holds the other successors one player can force (:meth:`deviations`)."""
        return self._tables[0]

    def deviations(self, state: int, joint: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Per player, the successors other than ``joint``'s own that it can
        force at ``state`` by changing its action in ``joint``, ascending."""
        own = self.transitions[state, joint]
        return tuple(
            tuple(sorted({self.transitions[state, (*joint[:i], a, *joint[i + 1:])]
                          for a in row[state]} - {own}))
            for i, row in enumerate(self.protocol))

    def response_classes(self, player: int) -> list[tuple[tuple[tuple[int, ...], tuple], ...]]:
        """Per state, ascending, each distinct response map (``player``'s successor
        per own action, the others' fixed) with the least joint action giving it."""
        return self._tables[1][player]

    def product(self, step: tuple[tuple[int, ...], ...], start: int
                ) -> tuple[tuple[tuple[int, int], ...], "Arena"]:
        """Reachable (state, machine state) pairs and their arena, for a
        machine moving from ``q`` to ``step[q][s]`` when play leaves ``s``.
        Pair ``k`` is product state ``k``, numbered in the order a depth-first
        walk from ``(initial, start)`` (product state 0) first meets it.  Kept
        by ``(step, start)``, so machines with one transition table, such as
        every single-state machine, share one arena object.
        """
        products = self._products
        if (step, start) not in products:
            pairs = [(self.initial, start)]
            index = {pairs[0]: 0}
            frontier = [0]
            transitions: dict[tuple[int, tuple[int, ...]], int] = {}
            while frontier:
                ps = frontier.pop()
                s, q = pairs[ps]
                for joint, succ in self.moves(s):
                    pt = index.setdefault((succ, step[q][s]), len(pairs))
                    if pt == len(pairs):
                        pairs.append((succ, step[q][s]))
                        frontier.append(pt)
                    transitions[ps, joint] = pt
            protocol = tuple(tuple(row[s] for s, _ in pairs) for row in self.protocol)
            products[step, start] = tuple(pairs), Arena(0, protocol, transitions)
        return products[step, start]

    @cached_property
    def _products(self) -> dict:
        return {}


def _arena_tables(arena: Arena):
    """:attr:`Arena.deviation_moves` and :meth:`Arena.response_classes`,
    from one pass over the response maps.  In :meth:`Arena.joint_actions`
    order, a block of ``stride * k`` joint actions from ``b`` fixes the
    players before player ``i`` (``k`` actions); for ``b <= o < b + stride``,
    joint actions ``o, o + stride, ...`` of the block are ``i``'s actions
    against one profile of the others, so ``succ[o:b + block:stride]`` is a
    response map, least at ``joints[o]``."""
    moves_table = []
    responses: list[list] = [[] for _ in arena.protocol]
    devs_of: dict = {}  # response map -> deviation set of each action
    intern = {}.setdefault  # one object per distinct tuple kept
    for s in range(arena.n_states):
        joints = list(arena.joint_actions(s))
        succ = [arena.transitions[s, joint] for joint in joints]
        cols = []
        block = len(joints)
        for player, row in enumerate(arena.protocol):
            stride = block // len(row[s])
            col = [None] * len(joints)
            first: dict = {}  # response map -> its least joint action
            for b in range(0, len(joints), block):
                for o in range(b, b + stride):
                    rmap = tuple(succ[o:b + block:stride])
                    if rmap not in devs_of:
                        devs_of[rmap] = tuple([intern(d, d) for d in [
                            tuple(sorted({u for u in rmap if u != t})) for t in rmap]])
                    first.setdefault(rmap, joints[o])
                    col[o:b + block:stride] = devs_of[rmap]
            classes = [(intern(rmap, rmap), intern(joint, joint)) for rmap, joint in first.items()]
            responses[player].append(tuple(sorted(intern(pair, pair) for pair in classes)))
            cols.append(col)
            block = stride
        least: dict[tuple, tuple[int, ...]] = {}  # move -> its least joint action
        for joint, key in zip(joints, zip(succ, zip(*cols))):
            least.setdefault(key, joint)
        moves_table.append(tuple(intern(t, t)
                                 for t in (tuple(least), tuple(least.values()))))
    return tuple(moves_table), responses


@dataclass(frozen=True, eq=False)
class Game:
    """Named players, actions and states on an :class:`Arena`, with integer
    weights ``weights[i][s]`` and ``global_weights[s]``; ``initial``,
    ``protocol`` and ``transitions`` read the arena's."""

    player_names: tuple[str, ...]
    action_names: tuple[str, ...]
    state_names: tuple[str, ...]
    arena: Arena = field(repr=False)
    weights: tuple[tuple[int, ...], ...] = field(repr=False)
    global_weights: tuple[int, ...] = field(repr=False)
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        n, m = self.n_players, self.n_states
        if ((len(self.arena.protocol), self.arena.n_states, len(self.global_weights)) != (n, m, m)
                or [len(row) for row in self.weights] != [m] * n):
            raise GameStructureError("arena and weight tables must cover every player and state")

    initial = property(lambda self: self.arena.initial)
    protocol = property(lambda self: self.arena.protocol)
    transitions = property(lambda self: self.arena.transitions)

    @property
    def n_players(self) -> int:
        return len(self.player_names)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def joint_action_names(self, joint: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.action_names[a] for a in joint)


def check_player(game: Game, player: int) -> None:
    # bool is an int subclass; True is refused, not read as player 1.
    if type(player) is not int or player not in range(game.n_players):
        raise ValueError(f"player {player!r} is not a player index")


def _weight(value: object, path: str) -> int:
    # bool is an int subclass; it and non-integral numbers are refused, not cast.
    if isinstance(value, bool) or not isinstance(value, int):
        raise GameStructureError(f"{path}: expected an integer, got {value!r}")
    return value


def make_game(
    players: Sequence[str],
    actions: Sequence[str],
    states: Sequence[str],
    initial: str,
    protocol: Mapping[str, Mapping[str, Sequence[str]]],
    transitions: Mapping[str, Mapping[tuple[str, ...], str]],
    weights: Mapping[str, Mapping[str, int]],
    global_weights: Mapping[str, int],
    meta: Mapping[str, str] | None = None,
) -> Game:
    """Intern a name-level description into a :class:`Game`.

    Raises :class:`GameStructureError` naming the offending component when
    a table is partial, a protocol is empty, a name is unknown, a
    transition is given for a joint action the protocol forbids, or a
    weight is not an integer (floats, numeric strings and booleans are
    refused).  Protocol lists are sorted into action order; nothing else
    given is dropped or reordered.
    """
    pid = {p: i for i, p in enumerate(players)}
    aid = {a: i for i, a in enumerate(actions)}
    sid = {s: i for i, s in enumerate(states)}
    if len(pid) != len(players) or len(aid) != len(actions) or len(sid) != len(states):
        raise GameStructureError("duplicate player/action/state names")
    if initial not in sid:
        raise GameStructureError(f"unknown initial state {initial!r}")

    proto: list[list[tuple[int, ...]]] = [[() for _ in states] for _ in players]
    # Protocol rows and joint actions repeat across states: one tuple each.
    ids_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for sname, per_player in protocol.items():
        if sname not in sid:
            raise GameStructureError(f"protocol.{sname}: unknown state")
        for pname, acts in per_player.items():
            if pname not in pid:
                raise GameStructureError(f"protocol.{sname}.{pname}: unknown player")
            try:
                ids = tuple(sorted(aid[a] for a in acts))
            except KeyError as exc:
                raise GameStructureError(f"protocol.{sname}.{pname}: unknown action {exc}")
            proto[pid[pname]][sid[sname]] = ids_of.setdefault(ids, ids)

    trans: dict[tuple[int, tuple[int, ...]], int] = {}
    for sname, per_joint in transitions.items():
        if sname not in sid:
            raise GameStructureError(f"transitions.{sname}: unknown state")
        for joint, succ in per_joint.items():
            if len(joint) != len(players):
                raise GameStructureError(f"transitions.{sname}: joint action arity mismatch")
            if succ not in sid:
                raise GameStructureError(f"transitions.{sname}: unknown target {succ!r}")
            try:
                key = tuple(aid[a] for a in joint)
            except KeyError as exc:
                raise GameStructureError(f"transitions.{sname}: unknown action {exc}")
            trans[(sid[sname], ids_of.setdefault(key, key))] = sid[succ]

    wtab: list[tuple[int, ...]] = []
    for pname in players:
        table = weights.get(pname)
        if table is None:
            raise GameStructureError(f"weights.{pname}: missing table")
        row = []
        for sname in states:
            if sname not in table:
                raise GameStructureError(f"weights.{pname}.{sname}: missing entry")
            row.append(_weight(table[sname], f"weights.{pname}.{sname}"))
        wtab.append(tuple(row))
    grow = []
    for sname in states:
        if sname not in global_weights:
            raise GameStructureError(f"global_weights.{sname}: missing entry")
        grow.append(_weight(global_weights[sname], f"global_weights.{sname}"))
    # Every known key has been read, so a longer table holds an unknown one.
    _no_extra(weights, pid, "weights", "player")
    for pname in players:
        _no_extra(weights[pname], sid, f"weights.{pname}", "state")
    _no_extra(global_weights, sid, "global_weights", "state")

    arena = Arena(sid[initial], tuple(tuple(row) for row in proto), trans,
                  names=(players, actions, states))
    game = Game(
        player_names=tuple(players),
        action_names=tuple(actions),
        state_names=tuple(states),
        arena=arena,
        weights=tuple(wtab),
        global_weights=tuple(grow),
        meta=tuple(sorted((meta or {}).items())),
    )
    # The arena has checked every allowed joint action, so any further transition
    # is for one the protocol forbids.
    n_allowed = sum(math.prod(map(len, per_state)) for per_state in zip(*game.protocol))
    if len(trans) > n_allowed:
        s, joint = next((s, joint) for s, joint in trans
                        if any(a not in game.protocol[i][s] for i, a in enumerate(joint)))
        raise GameStructureError(
            f"transitions.{states[s]}.{','.join(game.joint_action_names(joint))}: "
            "joint action not allowed"
        )
    return game


def _no_extra(table: Mapping, known: Mapping, path: str, kind: str) -> None:
    if len(table) > len(known):
        extra = next(k for k in table if k not in known)
        raise GameStructureError(f"{path}.{extra}: unknown {kind}")


def _action_label(game: Game, a: int) -> str:
    return repr(game.action_names[a]) if a in range(len(game.action_names)) else f"id {a!r}"


def tabulate(n_rows: int, n_cols: int, cell: Callable[[int, int], tuple]) -> tuple:
    """``(step, out)`` tables, as row tuples, of the Mealy machine whose row ``m``,
    column ``s`` moves to ``cell(m, s)[0]`` and emits ``cell(m, s)[1]``: memory
    and action of a strategy, or next state and reward vector of a machine."""
    rows = [tuple(zip(*map(cell, itertools.repeat(m, n_cols), range(n_cols))))
            for m in range(n_rows)]
    step, out = zip(*rows)
    return step, out


@dataclass(frozen=True)
class MealyStrategy:
    """Finite-memory deterministic strategy for one player.

    ``step[t][s]`` is the memory update and ``act[t][s]`` the action played
    when the play is at state ``s`` with memory ``t``.
    """

    n_memory: int
    initial: int
    step: tuple[tuple[int, ...], ...]
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_memory <= 0 or not 0 <= self.initial < self.n_memory:
            raise InvalidStrategyError("memory set must be nonempty with a valid initial")
        if len(self.step) != self.n_memory or len(self.act) != self.n_memory:
            raise InvalidStrategyError("step/act tables must cover every memory state")

    def validate(self, game: Game, player: int) -> None:
        for t in range(self.n_memory):
            if len(self.step[t]) != game.n_states or len(self.act[t]) != game.n_states:
                raise InvalidStrategyError("strategy tables must cover every game state")
            for s in range(game.n_states):
                # Only ints are read: a bool, a float or a name is refused, not coerced.
                if type(self.step[t][s]) is not int or not 0 <= self.step[t][s] < self.n_memory:
                    raise InvalidStrategyError(
                        f"memory update {self.step[t][s]!r} is not a memory index")
                if type(self.act[t][s]) is not int:
                    raise InvalidStrategyError(
                        f"action {self.act[t][s]!r} for player {game.player_names[player]!r} "
                        f"at {game.state_names[s]!r} is not an action id")
                if self.act[t][s] not in game.protocol[player][s]:
                    raise InvalidStrategyError(
                        f"action {_action_label(game, self.act[t][s])} not allowed for "
                        f"player {game.player_names[player]!r} at {game.state_names[s]!r}"
                    )


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per player of a designated index set."""

    players: tuple[int, ...]
    strategies: tuple[MealyStrategy, ...]

    def __post_init__(self) -> None:
        if len(self.players) != len(self.strategies):
            raise InvalidStrategyError("profile must assign exactly one strategy per player")

    def strategy_for(self, player: int) -> MealyStrategy:
        return self.strategies[self.players.index(player)]

    def without(self, player: int) -> "StrategyProfile":
        keep = [(p, s) for p, s in zip(self.players, self.strategies) if p != player]
        return StrategyProfile(tuple(p for p, _ in keep), tuple(s for _, s in keep))

    def validate(self, game: Game) -> None:
        for p, s in zip(self.players, self.strategies):
            s.validate(game, p)


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic play: finite prefix plus a nonempty cycle.

    Realizing joint actions are stored per step: deviation analysis needs
    to know which concrete joint action produced each step, not just the
    state sequence.
    """

    prefix_states: tuple[int, ...]
    cycle_states: tuple[int, ...]
    prefix_moves: tuple[tuple[int, ...], ...]
    cycle_moves: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.cycle_states:
            raise InvalidLassoError("cycle must be nonempty")
        if len(self.prefix_states) != len(self.prefix_moves):
            raise InvalidLassoError("prefix needs one realizing action per step")
        if len(self.cycle_states) != len(self.cycle_moves):
            raise InvalidLassoError("cycle needs one realizing action per step")

    def __len__(self) -> int:
        return len(self.prefix_states) + len(self.cycle_states)

    def steps(self) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """Yield ``(state, joint_action, successor)`` for prefix then cycle."""
        seq = list(self.prefix_states) + list(self.cycle_states)
        moves = list(self.prefix_moves) + list(self.cycle_moves)
        for k, (s, mv) in enumerate(zip(seq, moves)):
            nxt = seq[k + 1] if k + 1 < len(seq) else self.cycle_states[0]
            yield s, mv, nxt

    def validate(self, game: Game) -> None:
        # Only ints are read: a bool, a float or a name is refused, not coerced.
        for s in (*self.prefix_states, *self.cycle_states):
            if type(s) is not int:
                raise InvalidLassoError(f"state {s!r} is not a state index")
        start = self.prefix_states[0] if self.prefix_states else self.cycle_states[0]
        if not 0 <= start < game.n_states:
            raise InvalidLassoError("states out of range")
        for s, mv, nxt in self.steps():
            if type(mv) is not tuple:
                raise InvalidLassoError(
                    f"joint action {mv!r} at {game.state_names[s]!r} is not a tuple")
            if len(mv) != game.n_players:
                raise InvalidLassoError(
                    f"joint action {mv} at {game.state_names[s]!r} needs one entry per player")
            for i, a in enumerate(mv):
                if type(a) is not int:
                    raise InvalidLassoError(
                        f"action {a!r} at {game.state_names[s]!r} for "
                        f"{game.player_names[i]!r} is not an action id")
                if a not in game.protocol[i][s]:
                    raise InvalidLassoError(
                        f"action {_action_label(game, a)} not allowed at "
                        f"{game.state_names[s]!r} for {game.player_names[i]!r}"
                    )
            if game.transitions[(s, mv)] != nxt:
                raise InvalidLassoError(
                    f"step at {game.state_names[s]!r} is not transition-consistent"
                )

    def describe(self, game: Game) -> dict:
        return {
            "prefix": [game.state_names[s] for s in self.prefix_states],
            "cycle": [game.state_names[s] for s in self.cycle_states],
        }


def mean_payoff(weight_table: Sequence[int], lasso: Lasso) -> Fraction:
    """Exact cycle average of ``weight_table`` along the lasso; prefix ignored."""
    total = sum(weight_table[s] for s in lasso.cycle_states)
    return Fraction(total, len(lasso.cycle_states))


def payoffs(game: Game, lasso: Lasso) -> tuple[tuple[Fraction, ...], Fraction]:
    """Per-player payoff vector and global payoff of a lasso."""
    lasso.validate(game)
    per = tuple(mean_payoff(game.weights[i], lasso) for i in range(game.n_players))
    return per, mean_payoff(game.global_weights, lasso)


def run_profile(game: Game, profile: StrategyProfile) -> Lasso:
    """Unique lasso induced by a complete deterministic profile.

    Simulates the joint (state, memory vector) evolution until the first
    repeated configuration; determinism guarantees a lasso within
    |St| * prod |T_i| steps.
    """
    if tuple(sorted(profile.players)) != tuple(range(game.n_players)):
        raise InvalidStrategyError("profile must cover exactly the game's players")
    profile.validate(game)
    strats = [profile.strategy_for(i) for i in range(game.n_players)]
    state = game.initial
    mems = tuple(st.initial for st in strats)
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    states: list[int] = []
    moves: list[tuple[int, ...]] = []
    while (state, mems) not in seen:
        seen[(state, mems)] = len(states)
        joint = tuple(st.act[mems[i]][state] for i, st in enumerate(strats))
        states.append(state)
        moves.append(joint)
        nxt = game.transitions[(state, joint)]
        mems = tuple(st.step[mems[i]][state] for i, st in enumerate(strats))
        state = nxt
    k = seen[(state, mems)]
    return Lasso(
        prefix_states=tuple(states[:k]),
        cycle_states=tuple(states[k:]),
        prefix_moves=tuple(moves[:k]),
        cycle_moves=tuple(moves[k:]),
    )


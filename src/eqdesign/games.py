"""Weighted concurrent game structures and exact mean-payoff evaluation.

A game couples a finite arena (states, per-player protocols, a total
transition function over joint actions) with integer weight tables: one per
player plus a designer-facing global table.  Plays are evaluated by the
mean payoff of the weight sequence they induce; since every object this
toolkit manipulates is ultimately periodic, the lim-inf average always
equals the average over the cycle.

States, actions and players are interned as integer ids; the string names
are kept only for I/O.  All structures are immutable after construction and
every operation here is pure, so values can be shared freely across
workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


class GameStructureError(ValueError):
    """A game component violates a structural invariant."""


class InvalidLassoError(ValueError):
    """A lasso is not transition-consistent with its arena."""


class InvalidStrategyError(ValueError):
    """A strategy is incomplete or plays outside the protocol."""


@dataclass(frozen=True, eq=False)
class Game:
    """Multi-player concurrent arena with per-player and global weights.

    ``protocol[i][s]`` lists the action ids player ``i`` may use at state
    ``s`` (never empty), ``transitions[s, joint]`` is total over
    protocol-allowed joint actions, and ``weights[i][s]`` /
    ``global_weights[s]`` are integers.
    """

    player_names: tuple[str, ...]
    action_names: tuple[str, ...]
    state_names: tuple[str, ...]
    initial: int
    protocol: tuple[tuple[tuple[int, ...], ...], ...]
    transitions: Mapping[tuple[int, tuple[int, ...]], int] = field(repr=False)
    weights: tuple[tuple[int, ...], ...] = field(repr=False)
    global_weights: tuple[int, ...] = field(repr=False)
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        n, m = self.n_players, self.n_states
        if n == 0 or m == 0:
            raise GameStructureError("games need at least one player and one state")
        if not 0 <= self.initial < m:
            raise GameStructureError("initial state out of range")
        if len(self.protocol) != n or len(self.weights) != n:
            raise GameStructureError("protocol/weight tables must cover every player")
        if len(self.global_weights) != m:
            raise GameStructureError("global weight table must cover every state")
        for i in range(n):
            if len(self.protocol[i]) != m or len(self.weights[i]) != m:
                raise GameStructureError(
                    f"player {self.player_names[i]!r}: tables must cover every state"
                )
            for s in range(m):
                if not self.protocol[i][s]:
                    raise GameStructureError(
                        f"empty protocol for player {self.player_names[i]!r} "
                        f"at state {self.state_names[s]!r}"
                    )
        for s in range(m):
            for joint in self.joint_actions(s):
                succ = self.transitions.get((s, joint))
                if succ is None:
                    raise GameStructureError(
                        f"missing transition at state {self.state_names[s]!r} "
                        f"for joint action {self.joint_action_names(joint)}"
                    )
                if not 0 <= succ < m:
                    raise GameStructureError("transition target out of range")

    @property
    def n_players(self) -> int:
        return len(self.player_names)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def joint_actions(self, state: int) -> Iterator[tuple[int, ...]]:
        """All protocol-allowed joint actions at ``state``, lexicographic."""
        return itertools.product(*(self.protocol[i][state] for i in range(self.n_players)))

    def moves(self, state: int) -> list[tuple[tuple[int, ...], int]]:
        return [(joint, self.transitions[(state, joint)]) for joint in self.joint_actions(state)]

    def joint_action_names(self, joint: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.action_names[a] for a in joint)

    def deviation_successors(self, state: int, joint: tuple[int, ...], player: int) -> set[int]:
        """Successors player ``player`` can force by a unilateral deviation.

        Deviations that land on the same successor as ``joint`` itself are
        dropped: strategies read states only, so such deviations are
        unobservable and cannot change the play.
        """
        base = self.transitions[(state, joint)]
        out: set[int] = set()
        for alt in self.protocol[player][state]:
            if alt == joint[player]:
                continue
            dev = self.transitions[(state, joint[:player] + (alt,) + joint[player + 1 :])]
            if dev != base:
                out.add(dev)
        return out

    def reachable_states(self, start: int | None = None) -> list[int]:
        """States reachable from ``start`` (default: the initial state)."""
        root = self.initial if start is None else start
        seen = {root}
        frontier = [root]
        while frontier:
            s = frontier.pop()
            for _, succ in self.moves(s):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return sorted(seen)


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
            proto[pid[pname]][sid[sname]] = ids

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
            trans[(sid[sname], key)] = sid[succ]

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

    game = Game(
        player_names=tuple(players),
        action_names=tuple(actions),
        state_names=tuple(states),
        initial=sid[initial],
        protocol=tuple(tuple(row) for row in proto),
        transitions=trans,
        weights=tuple(wtab),
        global_weights=tuple(grow),
        meta=tuple(sorted((meta or {}).items())),
    )
    # Game has checked every allowed joint action, so any further transition
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
                if not 0 <= self.step[t][s] < self.n_memory:
                    raise InvalidStrategyError("memory update out of range")
                if self.act[t][s] not in game.protocol[player][s]:
                    raise InvalidStrategyError(
                        f"action {game.action_names[self.act[t][s]]!r} not allowed for "
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
        start = self.prefix_states[0] if self.prefix_states else self.cycle_states[0]
        if not 0 <= start < game.n_states:
            raise InvalidLassoError("states out of range")
        for s, mv, nxt in self.steps():
            for i, a in enumerate(mv):
                if a not in game.protocol[i][s]:
                    raise InvalidLassoError(
                        f"action {game.action_names[a]!r} not allowed at "
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


def run_profile(game: Game, profile: StrategyProfile, start: int | None = None) -> Lasso:
    """Unique lasso induced by a complete deterministic profile.

    Simulates the joint (state, memory vector) evolution until the first
    repeated configuration; determinism guarantees a lasso within
    |St| * prod |T_i| steps.
    """
    if tuple(sorted(profile.players)) != tuple(range(game.n_players)):
        raise InvalidStrategyError("profile must cover exactly the game's players")
    profile.validate(game)
    strats = [profile.strategy_for(i) for i in range(game.n_players)]
    state = game.initial if start is None else start
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
    lasso = Lasso(
        prefix_states=tuple(states[:k]),
        cycle_states=tuple(states[k:]),
        prefix_moves=tuple(moves[:k]),
        cycle_moves=tuple(moves[k:]),
    )
    lasso.validate(game)
    return lasso


def lasso_from_states(game: Game, states: Sequence[int],
                      cycle_from: int) -> Lasso:
    """Build a lasso from a state walk, choosing lex-least realizing actions.

    ``states[cycle_from:]`` must return to ``states[cycle_from]``.
    """
    seq = list(states)
    moves = []
    for k, s in enumerate(seq):
        nxt = seq[k + 1] if k + 1 < len(seq) else seq[cycle_from]
        for joint in game.joint_actions(s):
            if game.transitions[(s, joint)] == nxt:
                moves.append(joint)
                break
        else:
            raise InvalidLassoError(
                f"no joint action realizes {game.state_names[s]!r} -> "
                f"{game.state_names[nxt]!r}"
            )
    return Lasso(
        prefix_states=tuple(seq[:cycle_from]),
        cycle_states=tuple(seq[cycle_from:]),
        prefix_moves=tuple(moves[:cycle_from]),
        cycle_moves=tuple(moves[cycle_from:]),
    )

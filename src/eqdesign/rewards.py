"""Reward machines, budget checks, and the product of a game with a machine.

A reward machine is a Mealy machine reading the game's states and emitting a
nonnegative reward vector, one entry per player.  Implementing a machine on
a game yields a product game over (game state, machine state) pairs: each
player's weight gains the reward addressed to them, while the global weight
is charged the full amount handed out.

Argument order is normalized to ``(q, s)`` (machine state first) for both
the transition and the reward tables; the source material alternates
between the two orders, so one convention is fixed for the whole codebase.
Rewards are charged at the product state ``(s, q)`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .games import Game


class RewardMachineError(ValueError):
    """A reward machine is malformed or mismatched with its target game."""


@dataclass(frozen=True, eq=False)
class RewardMachine:
    """Mealy machine granting per-step reward vectors.

    ``step[q][s]`` is the next machine state and ``rewards[q][s]`` the
    vector of naturals handed to the players when the play sits at the
    product state ``(s, q)``.
    """

    state_names: tuple[str, ...]
    initial: int
    step: tuple[tuple[int, ...], ...] = field(repr=False)
    rewards: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        nq = self.n_states
        if nq == 0 or not 0 <= self.initial < nq:
            raise RewardMachineError("machine needs states and a valid initial state")
        if len(self.step) != nq or len(self.rewards) != nq:
            raise RewardMachineError("step/reward tables must cover every machine state")
        width = len(self.step[0])
        for q in range(nq):
            if len(self.step[q]) != width or len(self.rewards[q]) != width:
                raise RewardMachineError("tables must be rectangular over game states")
            for s in range(width):
                if not 0 <= self.step[q][s] < nq:
                    raise RewardMachineError("machine transition out of range")
                if any(r < 0 for r in self.rewards[q][s]):
                    raise RewardMachineError("rewards must be naturals")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_game_states(self) -> int:
        return len(self.step[0])

    @property
    def n_players(self) -> int:
        return len(self.rewards[0][0])

    def validate_for(self, game: Game) -> None:
        if self.n_game_states != game.n_states:
            raise RewardMachineError(
                f"machine reads {self.n_game_states} game states, "
                f"game has {game.n_states}"
            )
        if self.n_players != game.n_players:
            raise RewardMachineError(
                f"machine rewards {self.n_players} players, game has {game.n_players}"
            )

    def max_norm(self) -> int:
        """Largest per-step total handed out (Manhattan norm of a vector)."""
        return max(sum(vec) for row in self.rewards for vec in row)

    def canonical_key(self) -> tuple:
        return (self.initial, self.step, self.rewards)


def is_beta_rm(rm: RewardMachine, budget: int) -> bool:
    """True iff every reward vector's entry sum stays within the budget."""
    if budget < 0:
        raise RewardMachineError("budget must be a natural number")
    return rm.max_norm() <= budget


def product_arena(game: Game, rm: RewardMachine,
                  ) -> tuple[list[tuple[int, int]], dict[tuple[int, tuple[int, ...]], int]]:
    """Reachable (game state, machine state) pairs and the product's moves.

    Pair ``k`` is product state ``k``, numbered in the order a depth-first
    walk from ``(game.initial, rm.initial)`` (product state 0) first meets
    it; the table maps ``(k, joint)`` to the successor's id.  This is the
    one place that numbers product states, so code that needs the pair
    behind a product state asks here instead of reading state names.
    """
    rm.validate_for(game)
    pairs: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}

    def intern(pair: tuple[int, int]) -> int:
        if pair not in index:
            index[pair] = len(pairs)
            pairs.append(pair)
        return index[pair]

    frontier = [intern((game.initial, rm.initial))]
    transitions: dict[tuple[int, tuple[int, ...]], int] = {}
    while frontier:
        ps = frontier.pop()
        s, q = pairs[ps]
        q_next = rm.step[q][s]
        for joint, succ in game.moves(s):
            target = (succ, q_next)
            known = target in index
            pt = intern(target)
            transitions[(ps, joint)] = pt
            if not known:
                frontier.append(pt)
    return pairs, transitions


def implement(game: Game, rm: RewardMachine) -> Game:
    """Product game of ``game`` with ``rm``; only reachable pairs are kept.

    Protocols are inherited from the game component, the machine advances
    by reading the game state being left, player weights gain the rewards
    and the global weight is charged their sum.  The global weight of the
    product may go negative; plain games allow integer weights.  Product
    states follow :func:`product_arena`; their names join the two
    components' names with ``|`` for display only.
    """
    n = game.n_players
    pairs, transitions = product_arena(game, rm)
    state_names = tuple(
        f"{game.state_names[s]}|{rm.state_names[q]}" for s, q in pairs
    )
    protocol = tuple(
        tuple(game.protocol[i][s] for s, _ in pairs) for i in range(n)
    )
    weights = tuple(
        tuple(game.weights[i][s] + rm.rewards[q][s][i] for s, q in pairs)
        for i in range(n)
    )
    global_weights = tuple(
        game.global_weights[s] - sum(rm.rewards[q][s]) for s, q in pairs
    )
    return Game(
        player_names=game.player_names,
        action_names=game.action_names,
        state_names=state_names,
        initial=0,
        protocol=protocol,
        transitions=transitions,
        weights=weights,
        global_weights=global_weights,
        meta=game.meta,
    )


def zero_rm(game: Game) -> RewardMachine:
    """Single-state machine handing out nothing anywhere."""
    zero = tuple((0,) * game.n_players for _ in range(game.n_states))
    return RewardMachine(
        state_names=("q0",),
        initial=0,
        step=((0,) * game.n_states,),
        rewards=(zero,),
    )


def from_subsidy_scheme(game: Game, kappa: dict[int, tuple[int, ...]]) -> RewardMachine:
    """Memoryless machine paying ``kappa[s]`` whenever the play visits ``s``.

    Subsidy schemes are exactly the single-state reward machines; states
    absent from ``kappa`` pay nothing.
    """
    rows = []
    for s in range(game.n_states):
        vec = kappa.get(s, (0,) * game.n_players)
        if len(vec) != game.n_players:
            raise RewardMachineError(f"subsidy vector at state {s} has wrong arity")
        # bool is an int subclass; it and non-integral numbers are refused, not cast.
        if any(isinstance(r, bool) or not isinstance(r, int) or r < 0 for r in vec):
            raise RewardMachineError(f"subsidy vector at state {s}: expected naturals")
        rows.append(tuple(vec))
    return RewardMachine(
        state_names=("q0",),
        initial=0,
        step=((0,) * game.n_states,),
        rewards=(tuple(rows),),
    )


def k_cycle_delivery_rm(game: Game, k: int) -> RewardMachine:
    """Machine paying player 1 once per ``k`` delivery loops of the robot game.

    Built for the four-location robot arena: a 3k-state chain tracks
    progress through the pattern (t, l, m) repeated k times, pays 1 to the
    single player at the m completing the k-th loop, and falls back to the
    longest matching pattern prefix on any other observation.
    """
    if k < 1:
        raise RewardMachineError("k must be a positive integer")
    try:
        t = game.state_names.index("t")
        l = game.state_names.index("l")
        m = game.state_names.index("m")
    except ValueError:
        raise RewardMachineError("target game must use the robot arena states t, l, m")
    if game.n_players != 1:
        raise RewardMachineError("delivery machines target the one-player robot game")

    pattern = [t, l, m] * k
    nq = 3 * k
    step_rows = []
    reward_rows = []
    for j in range(nq):
        row = []
        rew = []
        for s in range(game.n_states):
            if s == pattern[j]:
                row.append((j + 1) % nq)
            elif s == t:
                row.append(1 % nq)
            else:
                row.append(0)
            rew.append((1,) if (j == nq - 1 and s == m) else (0,))
        step_rows.append(tuple(row))
        reward_rows.append(tuple(rew))
    return RewardMachine(
        state_names=tuple(f"q{j}" for j in range(nq)),
        initial=0,
        step=tuple(step_rows),
        rewards=tuple(reward_rows),
    )

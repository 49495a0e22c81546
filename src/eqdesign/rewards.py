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

from .games import Arena, Game, tabulate


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
    if type(budget) is not int or budget < 0:
        raise RewardMachineError("budget must be a natural number")
    return rm.max_norm() <= budget


def product_arena(game: Game, rm: RewardMachine,
                  ) -> tuple[tuple[tuple[int, int], ...], Arena]:
    """Reachable (game state, machine state) pairs and the product's arena.

    Pair ``k`` is product state ``k`` (see :meth:`Arena.product`).  This is
    the one place that numbers product states, so code that needs the pair
    behind a product state asks here instead of reading state names.  All
    single-state machines on one game share the pairs and the arena object.
    """
    rm.validate_for(game)
    return game.arena.product(rm.step, rm.initial)


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
    pairs, arena = product_arena(game, rm)
    state_names = tuple(
        f"{game.state_names[s]}|{rm.state_names[q]}" for s, q in pairs
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
        arena=arena,
        weights=weights,
        global_weights=global_weights,
        meta=game.meta,
    )


def zero_rm(game: Game) -> RewardMachine:
    """Single-state machine handing out nothing anywhere."""
    return from_subsidy_scheme(game, {})


def from_subsidy_scheme(game: Game, kappa: dict[int, tuple[int, ...]]) -> RewardMachine:
    """Memoryless machine paying ``kappa[s]`` whenever the play visits ``s``.

    Subsidy schemes are exactly the single-state reward machines; states
    absent from ``kappa`` pay nothing.  Only the given entries are checked.
    """
    for s in kappa:
        # bool is an int subclass; a key True is refused, not read as state 1.
        if type(s) is not int or s not in range(game.n_states):
            raise RewardMachineError(f"subsidy key {s!r} is not a state index")
    rows = [(0,) * game.n_players] * game.n_states
    # In state order, so the least offending state is the one named.
    for s in sorted(kappa):
        vec = kappa[s]
        if len(vec) != game.n_players:
            raise RewardMachineError(f"subsidy vector at state {s} has wrong arity")
        # bool is an int subclass; it and non-integral numbers are refused, not cast.
        if any(isinstance(r, bool) or not isinstance(r, int) or r < 0 for r in vec):
            raise RewardMachineError(f"subsidy vector at state {s}: expected naturals")
        rows[s] = tuple(vec)
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
    if type(k) is not int or k < 1:
        raise RewardMachineError(f"k must be a positive integer, got {k!r}")
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

    def cell(j: int, s: int) -> tuple[int, tuple[int]]:
        paid = (1,) if (j == nq - 1 and s == m) else (0,)
        if s == pattern[j]:
            return (j + 1) % nq, paid
        if s == t:
            return 1 % nq, paid
        return 0, paid

    step, rewards = tabulate(nq, game.n_states, cell)
    return RewardMachine(
        state_names=tuple(f"q{j}" for j in range(nq)),
        initial=0,
        step=step,
        rewards=rewards,
    )

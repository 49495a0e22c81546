"""Auxiliary game with a designer agent and the RM/strategy translations.

The designer joins the game as agent 0 whose actions are the reward
vectors affordable within the budget; states record the vector played on
the way in, so the designer's weight can charge it and each player's
weight can collect it.  Reward machines for the source game and agent-0
strategies in the auxiliary game encode each other, which turns reward
machine synthesis into strategy synthesis.

Because the vector recorded in a state is the one played one step
earlier, per-step weights of corresponding plays line up with a one-step
shift on the reward component (the state components align exactly); cycle
sums, and hence all mean payoffs, are preserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .games import Arena, Game, GameStructureError, MealyStrategy, check_player, tabulate
from .rewards import RewardMachine, RewardMachineError, is_beta_rm, product_arena
from .zerosum import SolverLimitError

# Effort budget on the designer's action alphabet.
REWARD_VECTOR_LIMIT = 5000


def reward_vectors(n_players: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """All natural vectors with entry sum within the budget, lexicographic:
    each prefix, in order, is extended by every entry its remaining budget
    allows, with no sort, so the zero vector comes first.  There are
    C(budget + n_players, n_players) of them; an alphabet over the size
    limit is refused before any is listed.
    """
    # bool is an int subclass; True is refused, not read as budget 1.
    if type(budget) is not int or budget < 0:
        raise ValueError("budget must be a natural number")
    if math.comb(budget + n_players, n_players) > REWARD_VECTOR_LIMIT:
        raise SolverLimitError("reward vector alphabet exceeds the size limit")
    vectors: list[tuple[int, ...]] = [()]
    for _ in range(n_players):
        vectors = [v + (x,) for v in vectors for x in range(budget - sum(v) + 1)]
    return tuple(vectors)


@dataclass(frozen=True, eq=False)
class AuxiliaryGame:
    """Designer-extended game plus the bookkeeping to translate back.

    ``game`` has agent 0 at player index 0 and the source players shifted
    up by one; its global weight table doubles as agent 0's, so global
    threshold queries read the designer payoff directly.  ``pair_id`` and
    ``vec_index`` invert ``pair_of_state`` and ``vectors``.
    """

    game: Game
    source: Game
    budget: int
    vectors: tuple[tuple[int, ...], ...]
    pair_of_state: tuple[tuple[int, int], ...] = field(repr=False)
    vector_action: tuple[int, ...] = field(repr=False)
    pair_id: Mapping[tuple[int, int], int] = field(repr=False)
    vec_index: Mapping[tuple[int, ...], int] = field(repr=False)


def vector_action_name(vec: Sequence[int]) -> str:
    return "pay_" + "_".join(str(v) for v in vec)


def build_auxiliary(game: Game, budget: int) -> AuxiliaryGame:
    """Designer-extended game over (state, last reward vector) pairs.

    Agent 0's alphabet is every natural vector within the budget, in
    lexicographic order; a zero budget leaves a single zero-vector action
    and the designer weight coincides with the source global weight.
    """
    vectors = reward_vectors(game.n_players, budget)
    vec_index = {v: k for k, v in enumerate(vectors)}
    src_states = game.arena.reachable_states()

    pairs = [(s, vi) for s in src_states for vi in range(len(vectors))]
    pair_id = {p: k for k, p in enumerate(pairs)}

    player_names = ("agent0",) + tuple(f"{p}" for p in game.player_names)
    if len(set(player_names)) != len(player_names):
        raise GameStructureError("source game may not name a player 'agent0'")
    action_names = tuple(game.action_names) + tuple(
        vector_action_name(v) for v in vectors
    )
    vector_action = tuple(len(game.action_names) + k for k in range(len(vectors)))
    state_names = tuple(
        f"{game.state_names[s]}#{vector_action_name(vectors[vi])[4:]}"
        for s, vi in pairs
    )

    n_aux = len(pairs)
    protocol = [[] for _ in range(game.n_players + 1)]
    protocol[0] = [vector_action for _ in range(n_aux)]
    for i in range(game.n_players):
        protocol[i + 1] = [game.protocol[i][s] for s, _ in pairs]

    transitions: dict[tuple[int, tuple[int, ...]], int] = {}
    for k, (s, vi) in enumerate(pairs):
        for joint, succ in game.arena.moves(s):
            for nvi in range(len(vectors)):
                aux_joint = (vector_action[nvi],) + joint
                transitions[(k, aux_joint)] = pair_id[(succ, nvi)]

    weights = [[] for _ in range(game.n_players + 1)]
    weights[0] = [
        game.global_weights[s] - sum(vectors[vi]) for s, vi in pairs
    ]
    for i in range(game.n_players):
        weights[i + 1] = [
            game.weights[i][s] + vectors[vi][i] for s, vi in pairs
        ]

    aux = Game(
        player_names=player_names,
        action_names=action_names,
        state_names=state_names,
        arena=Arena(pair_id[(game.initial, 0)],  # vectors[0] is zero
                    tuple(tuple(row) for row in protocol), transitions),
        weights=tuple(tuple(row) for row in weights),
        global_weights=tuple(weights[0]),
        meta=game.meta,
    )
    return AuxiliaryGame(
        game=aux,
        source=game,
        budget=budget,
        vectors=vectors,
        pair_of_state=tuple(pairs),
        vector_action=vector_action,
        pair_id=pair_id,
        vec_index=vec_index,
    )


def rm_to_strategy(aux: AuxiliaryGame, rm: RewardMachine) -> MealyStrategy:
    """Agent-0 strategy replaying a reward machine (memory = its states).

    The strategy reads only the state component of the auxiliary state and
    plays the vector the machine would charge there.
    """
    rm.validate_for(aux.source)
    if not is_beta_rm(rm, aux.budget):
        raise RewardMachineError("machine exceeds the budget; not an agent-0 strategy")

    def cell(q: int, x: int) -> tuple[int, int]:
        s = aux.pair_of_state[x][0]
        return rm.step[q][s], aux.vector_action[aux.vec_index[rm.rewards[q][s]]]

    return MealyStrategy(rm.n_states, rm.initial,
                         *tabulate(rm.n_states, aux.game.n_states, cell))


def strategy_to_rm(aux: AuxiliaryGame, sigma0: MealyStrategy) -> RewardMachine:
    """Reward machine encoding an agent-0 strategy.

    Machine states are (strategy memory, vector) pairs; the recorded vector
    component keeps the machine in sync with the auxiliary state the
    strategy would be seeing.
    """
    sigma0.validate(aux.game, 0)
    n_vec = len(aux.vectors)
    # Vector actions are numbered consecutively, in vector order.
    first_action = aux.vector_action[0]
    src = aux.source

    def cell(k: int, s: int) -> tuple[int, tuple[int, ...]]:
        # Machine state k stands for the pair (strategy memory t, vector vi).
        t, vi = divmod(k, n_vec)
        try:
            aux_state = aux.pair_id[(s, vi)]
        except KeyError:
            # Source state unreachable: pay nothing and move to the
            # zero-vector twin (vector 0) so states keep tracking vectors.
            return t * n_vec, (0,) * src.n_players
        played = sigma0.act[t][aux_state] - first_action
        return sigma0.step[t][aux_state] * n_vec + played, aux.vectors[played]

    step, rewards = tabulate(sigma0.n_memory * n_vec, src.n_states, cell)
    return RewardMachine(
        state_names=tuple(f"t{t}_v{vi}" for t in range(sigma0.n_memory) for vi in range(n_vec)),
        initial=sigma0.initial * n_vec,
        step=step,
        rewards=rewards,
    )


def lift_strategy(aux: AuxiliaryGame, rm: RewardMachine, product: Game,
                  sigma: MealyStrategy, player: int) -> MealyStrategy:
    """Transport a product-game strategy into the auxiliary game.

    Memory pairs the original memory with a shadow copy of the machine, so
    the strategy can keep addressing product states while reading auxiliary
    ones.  ``player`` indexes the source game; the result plays for player
    ``player + 1`` of the auxiliary game.
    """
    check_player(aux.source, player)
    sigma.validate(product, player)
    pairs, _ = product_arena(aux.source, rm)
    if len(pairs) != product.n_states:
        raise RewardMachineError("product is not the implementation of this machine")
    pidx = {pair: k for k, pair in enumerate(pairs)}
    n_q = rm.n_states

    def cell(k: int, x: int) -> tuple[int, int]:
        # Memory k stands for the pair (sigma's memory t, machine state q).
        t, q = divmod(k, n_q)
        s = aux.pair_of_state[x][0]
        ps = pidx.get((s, q))
        q_next = rm.step[q][s]
        if ps is None:
            # Product pair unreachable; stay put and play a legal filler.
            return t * n_q + q_next, aux.source.protocol[player][s][0]
        return sigma.step[t][ps] * n_q + q_next, sigma.act[t][ps]

    n_memory = sigma.n_memory * n_q
    return MealyStrategy(n_memory, sigma.initial * n_q + rm.initial,
                         *tabulate(n_memory, aux.game.n_states, cell))


def machine_state_vectors(aux: AuxiliaryGame, rm: RewardMachine) -> list[int]:
    """Vector index each machine state implies about the auxiliary state.

    Well-defined exactly for vector-tracking machines (every transition
    into a state carries the reward vector the state stands for), which
    includes everything ``strategy_to_rm`` produces.
    """
    # The initial state and states never entered stand for the zero vector, 0.
    vec_of: list[int | None] = [None] * rm.n_states
    vec_of[rm.initial] = 0
    for q in range(rm.n_states):
        for s in range(aux.source.n_states):
            target = rm.step[q][s]
            vi = aux.vec_index.get(rm.rewards[q][s])
            if vi is None:
                raise RewardMachineError("machine pays beyond the budget")
            if vec_of[target] is None:
                vec_of[target] = vi
            elif vec_of[target] != vi:
                raise RewardMachineError(
                    "machine states do not track reward vectors; cannot lower"
                )
    return [0 if v is None else v for v in vec_of]


def lower_strategy(aux: AuxiliaryGame, rm: RewardMachine, product: Game,
                   sigma_hat: MealyStrategy, player: int) -> MealyStrategy:
    """Transport an auxiliary-game strategy into the product game.

    Inverse of :func:`lift_strategy` for vector-tracking machines: each
    product state exposes the vector its machine state stands for, which
    recovers the auxiliary state the strategy expects.  ``player`` indexes
    the source game; ``sigma_hat`` must play for player ``player + 1``.
    """
    check_player(aux.source, player)
    sigma_hat.validate(aux.game, player + 1)
    rm.validate_for(aux.source)
    vec_of = machine_state_vectors(aux, rm)
    pairs, _ = product_arena(aux.source, rm)
    if len(pairs) != product.n_states:
        raise RewardMachineError("product is not the implementation of this machine")
    aux_states = [aux.pair_id[(s, vec_of[q])] for s, q in pairs]

    def cell(t: int, ps: int) -> tuple[int, int]:
        return sigma_hat.step[t][aux_states[ps]], sigma_hat.act[t][aux_states[ps]]

    return MealyStrategy(sigma_hat.n_memory, sigma_hat.initial,
                         *tabulate(sigma_hat.n_memory, len(pairs), cell))

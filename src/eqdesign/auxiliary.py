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

from dataclasses import dataclass, field
from typing import Sequence

from .games import Game, GameStructureError, MealyStrategy
from .rewards import RewardMachine, RewardMachineError, is_beta_rm, product_arena
from .zerosum import SolverLimitError


def reward_vectors(n_players: int, budget: int, limit: int = 5000) -> tuple[tuple[int, ...], ...]:
    """All natural vectors with entry sum within the budget, lexicographic."""
    if budget < 0:
        raise ValueError("budget must be a natural number")
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            prefix.append(v)
            rec(prefix, remaining - v, slots - 1)
            prefix.pop()

    rec([], budget, n_players)
    if len(out) > limit:
        raise SolverLimitError("reward vector alphabet exceeds the size limit")
    return tuple(sorted(out))


@dataclass(frozen=True, eq=False)
class AuxiliaryGame:
    """Designer-extended game plus the bookkeeping to translate back.

    ``game`` has agent 0 at player index 0 and the source players shifted
    up by one; its global weight table doubles as agent 0's, so global
    threshold queries read the designer payoff directly.
    """

    game: Game
    source: Game
    budget: int
    vectors: tuple[tuple[int, ...], ...]
    pair_of_state: tuple[tuple[int, int], ...] = field(repr=False)
    vector_action: tuple[int, ...] = field(repr=False)

    def state_id(self, source_state: int, vector_index: int) -> int:
        return self._pair_index[(source_state, vector_index)]

    @property
    def _pair_index(self) -> dict[tuple[int, int], int]:
        cached = getattr(self, "_pair_index_cache", None)
        if cached is None:
            cached = {pair: k for k, pair in enumerate(self.pair_of_state)}
            object.__setattr__(self, "_pair_index_cache", cached)
        return cached

    def vector_index(self, vec: tuple[int, ...]) -> int:
        return self.vectors.index(vec)


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
    src_states = game.reachable_states()

    pairs = [(s, vi) for s in src_states for vi in range(len(vectors))]
    pair_id = {p: k for k, p in enumerate(pairs)}
    zero_vi = vec_index[(0,) * game.n_players]

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
        for joint, succ in game.moves(s):
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
        initial=pair_id[(game.initial, zero_vi)],
        protocol=tuple(tuple(row) for row in protocol),
        transitions=transitions,
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
    )


def rm_to_strategy(aux: AuxiliaryGame, rm: RewardMachine) -> MealyStrategy:
    """Agent-0 strategy replaying a reward machine (memory = its states).

    The strategy reads only the state component of the auxiliary state and
    plays the vector the machine would charge there.
    """
    rm.validate_for(aux.source)
    if not is_beta_rm(rm, aux.budget):
        raise RewardMachineError("machine exceeds the budget; not an agent-0 strategy")
    vec_index = {v: k for k, v in enumerate(aux.vectors)}
    step_rows = []
    act_rows = []
    for q in range(rm.n_states):
        step_row = []
        act_row = []
        for s, _vi in aux.pair_of_state:
            step_row.append(rm.step[q][s])
            act_row.append(aux.vector_action[vec_index[rm.rewards[q][s]]])
        step_rows.append(tuple(step_row))
        act_rows.append(tuple(act_row))
    strat = MealyStrategy(rm.n_states, rm.initial, tuple(step_rows), tuple(act_rows))
    strat.validate(aux.game, 0)
    return strat


def strategy_to_rm(aux: AuxiliaryGame, sigma0: MealyStrategy) -> RewardMachine:
    """Reward machine encoding an agent-0 strategy.

    Machine states are (strategy memory, vector) pairs; the recorded vector
    component keeps the machine in sync with the auxiliary state the
    strategy would be seeing.
    """
    sigma0.validate(aux.game, 0)
    n_vec = len(aux.vectors)
    pairs = [(t, vi) for t in range(sigma0.n_memory) for vi in range(n_vec)]
    pair_id = {p: k for k, p in enumerate(pairs)}
    act_vec = {a: vi for vi, a in enumerate(aux.vector_action)}

    src = aux.source
    zero_vec_index = aux.vector_index((0,) * src.n_players)
    step_rows = []
    reward_rows = []
    for t, vi in pairs:
        step_row = []
        reward_row = []
        for s in range(src.n_states):
            try:
                aux_state = aux.state_id(s, vi)
            except KeyError:
                # Source state unreachable: pay nothing and move to the
                # zero-vector twin so states keep tracking vectors.
                step_row.append(pair_id[(t, zero_vec_index)])
                reward_row.append((0,) * src.n_players)
                continue
            played = act_vec[sigma0.act[t][aux_state]]
            step_row.append(pair_id[(sigma0.step[t][aux_state], played)])
            reward_row.append(aux.vectors[played])
        step_rows.append(tuple(step_row))
        reward_rows.append(tuple(reward_row))

    zero_vi = aux.vector_index((0,) * src.n_players)
    return RewardMachine(
        state_names=tuple(f"t{t}_v{vi}" for t, vi in pairs),
        initial=pair_id[(sigma0.initial, zero_vi)],
        step=tuple(step_rows),
        rewards=tuple(reward_rows),
    )


def product_pair_index(game: Game, rm: RewardMachine) -> dict[tuple[int, int], int]:
    """Map (game state id, machine state id) to the id of its product state.

    Covers the reachable pairs of ``implement(game, rm)``, numbered as
    that product numbers them (both come from :func:`product_arena`).
    """
    pairs, _ = product_arena(game, rm)
    return {pair: k for k, pair in enumerate(pairs)}


def lift_strategy(aux: AuxiliaryGame, rm: RewardMachine, product: Game,
                  sigma: MealyStrategy, player: int) -> MealyStrategy:
    """Transport a product-game strategy into the auxiliary game.

    Memory pairs the original memory with a shadow copy of the machine, so
    the strategy can keep addressing product states while reading auxiliary
    ones.  ``player`` indexes the source game; the result plays for player
    ``player + 1`` of the auxiliary game.
    """
    sigma.validate(product, player)
    pidx = product_pair_index(aux.source, rm)
    if len(pidx) != product.n_states:
        raise RewardMachineError("product is not the implementation of this machine")
    src = aux.source

    mem_pairs = [(t, q) for t in range(sigma.n_memory) for q in range(rm.n_states)]
    mem_id = {p: k for k, p in enumerate(mem_pairs)}
    step_rows = []
    act_rows = []
    for t, q in mem_pairs:
        step_row = []
        act_row = []
        for s, _vi in aux.pair_of_state:
            ps = pidx.get((s, q))
            q_next = rm.step[q][s]
            if ps is None:
                # Product pair unreachable; stay put and play a legal filler.
                step_row.append(mem_id[(t, q_next)])
                act_row.append(src.protocol[player][s][0])
            else:
                step_row.append(mem_id[(sigma.step[t][ps], q_next)])
                act_row.append(sigma.act[t][ps])
        step_rows.append(tuple(step_row))
        act_rows.append(tuple(act_row))
    lifted = MealyStrategy(
        len(mem_pairs), mem_id[(sigma.initial, rm.initial)],
        tuple(step_rows), tuple(act_rows),
    )
    lifted.validate(aux.game, player + 1)
    return lifted


def machine_state_vectors(aux: AuxiliaryGame, rm: RewardMachine) -> list[int]:
    """Vector index each machine state implies about the auxiliary state.

    Well-defined exactly for vector-tracking machines (every transition
    into a state carries the reward vector the state stands for), which
    includes everything ``strategy_to_rm`` produces.
    """
    zero_vi = aux.vector_index((0,) * aux.source.n_players)
    vec_of: list[int | None] = [None] * rm.n_states
    vec_of[rm.initial] = zero_vi
    for q in range(rm.n_states):
        for s in range(aux.source.n_states):
            target = rm.step[q][s]
            try:
                vi = aux.vector_index(rm.rewards[q][s])
            except ValueError:
                raise RewardMachineError("machine pays beyond the budget")
            if vec_of[target] is None:
                vec_of[target] = vi
            elif vec_of[target] != vi:
                raise RewardMachineError(
                    "machine states do not track reward vectors; cannot lower"
                )
    return [zero_vi if v is None else v for v in vec_of]


def lower_strategy(aux: AuxiliaryGame, rm: RewardMachine, product: Game,
                   sigma_hat: MealyStrategy, player: int) -> MealyStrategy:
    """Transport an auxiliary-game strategy into the product game.

    Inverse of :func:`lift_strategy` for vector-tracking machines: each
    product state exposes the vector its machine state stands for, which
    recovers the auxiliary state the strategy expects.  ``player`` indexes
    the source game; ``sigma_hat`` must play for player ``player + 1``.
    """
    sigma_hat.validate(aux.game, player + 1)
    rm.validate_for(aux.source)
    vec_of = machine_state_vectors(aux, rm)
    pairs, _ = product_arena(aux.source, rm)

    step_rows = []
    act_rows = []
    for t in range(sigma_hat.n_memory):
        step_row = []
        act_row = []
        for s, q in pairs:
            aux_state = aux.state_id(s, vec_of[q])
            step_row.append(sigma_hat.step[t][aux_state])
            act_row.append(sigma_hat.act[t][aux_state])
        step_rows.append(tuple(step_row))
        act_rows.append(tuple(act_row))
    lowered = MealyStrategy(
        sigma_hat.n_memory, sigma_hat.initial, tuple(step_rows), tuple(act_rows)
    )
    lowered.validate(product, player)
    return lowered

"""Exact zero-sum mean-payoff machinery behind equilibrium certification.

Three layers live here:

* Karp-style maximum mean cycle, exact over ``Fraction`` weights.
* Best-response values: the supremum a single player can secure against a
  committed finite-memory coalition (positional optima make this a max
  mean cycle in the committed product).
* Punishment values: the least mean payoff a coalition can impose on one
  player.  The information order is coalition-commits-first, so the game
  collapses to a turn-based game.  One exact solver handles it in integer
  arithmetic: values are rationals with denominator at most the state
  count (Zwick-Paterson), each candidate is decided by an energy game
  solved with progress measures (Brim, Chaloupka, Doyen, Gentilini,
  Raskin), and the positional coalition witness read off the measures is
  checked against the deviator's exact best response before it is returned.
  A progress measure climbs slowly where its player loses by a small
  margin, so a lifting that runs long is paired with a strict dual game for
  the deviator, exact because the denominators are bounded: the two are
  lifted in lockstep and the first to finish decides the losing states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .games import Game, StrategyProfile

NEG_INF = float("-inf")


class SolverLimitError(RuntimeError):
    """An internal solver exceeded its configured effort budget."""


def strongly_connected_components(succs: Sequence[Iterable[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = len(succs)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succs[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if index[u] == -1:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(succs[u])))
                    advanced = True
                    break
                elif on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
    return comps


def _karp_max_mean(nodes: Sequence[int], succs: Mapping[int, Sequence[int]],
                   weight: Mapping[int, Fraction | int]) -> Fraction | None:
    """Max mean cycle inside a strongly connected node set; None if acyclic.

    Weights sit on the source node of each step.
    """
    order = list(nodes)
    pos = {v: k for k, v in enumerate(order)}
    n = len(order)
    has_edge = any(u in pos for v in order for u in succs[v])
    if not has_edge:
        return None
    # F[k][v] = max weight of a k-edge walk from the pseudo-source.
    prev = [Fraction(0)] * n
    table = [list(prev)]
    for _ in range(n):
        cur: list = [NEG_INF] * n
        for vi, v in enumerate(order):
            fv = prev[vi]
            if fv is NEG_INF:
                continue
            wv = weight[v]
            for u in succs[v]:
                ui = pos.get(u)
                if ui is None:
                    continue
                cand = fv + wv
                if cur[ui] is NEG_INF or cand > cur[ui]:
                    cur[ui] = cand
        table.append(cur)
        prev = cur
    best: Fraction | None = None
    final = table[n]
    for vi in range(n):
        if final[vi] is NEG_INF:
            continue
        worst: Fraction | None = None
        for k in range(n):
            fk = table[k][vi]
            if fk is NEG_INF:
                continue
            cand = Fraction(final[vi] - fk, n - k)
            if worst is None or cand < worst:
                worst = cand
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def max_mean_value_function(succs: Sequence[Sequence[int]],
                            weight: Sequence[Fraction | int]) -> list[Fraction]:
    """Per node, the largest mean of any cycle reachable from it.

    Every node must have out-degree >= 1 so a cycle is always reachable.
    """
    n = len(succs)
    for v in range(n):
        if not succs[v]:
            raise ValueError(f"node {v} has no successors")
    comps = strongly_connected_components(succs)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    values: list[Fraction | None] = [None] * len(comps)
    # Tarjan emits components in reverse topological order, so successors
    # of a component are already resolved when we reach it.
    for ci, comp in enumerate(comps):
        members = set(comp)
        local = {v: [u for u in succs[v] if u in members] for v in comp}
        best = _karp_max_mean(comp, local, {v: weight[v] for v in comp})
        for v in comp:
            for u in succs[v]:
                cj = comp_of[u]
                if cj != ci:
                    cand = values[cj]
                    if cand is not None and (best is None or cand > best):
                        best = cand
        if best is None:
            raise ValueError("graph has a reachable dead end")
        values[ci] = best
    return [values[comp_of[v]] for v in range(n)]


def max_mean_cycle(graph: Mapping[object, Iterable[tuple[object, int]]],
                   source: object) -> Fraction:
    """Exact maximum cycle mean over cycles reachable from ``source``.

    ``graph`` maps a node to ``(successor, edge weight)`` pairs.  Every
    reachable node must have at least one outgoing edge.
    """
    names: list[object] = []
    ids: dict[object, int] = {}
    edge_weight: list[dict[int, int]] = []

    def intern(v: object) -> int:
        if v not in ids:
            ids[v] = len(names)
            names.append(v)
            edge_weight.append({})
        return ids[v]

    root = intern(source)
    frontier = [root]
    while frontier:
        v = frontier.pop()
        edges = list(graph.get(names[v], []))
        if not edges:
            raise ValueError(f"reachable node {names[v]!r} has no outgoing edge")
        for u_name, w in edges:
            known = u_name in ids
            u = intern(u_name)
            # Parallel edges: only the heaviest matters for a max mean cycle.
            if u not in edge_weight[v] or w > edge_weight[v][u]:
                edge_weight[v][u] = int(w)
            if not known:
                frontier.append(u)

    # Shift edge weights onto split nodes so the node-weighted solver applies:
    # edge u->v of weight w becomes u -> (u,v) -> v, doubling w on the middle
    # node because the split cycle is twice as long.
    n = len(names)
    split_succs: list[list[int]] = [[] for _ in range(n)]
    split_weight: list[int] = [0] * n
    for v in range(n):
        for u in sorted(edge_weight[v]):
            mid = len(split_succs)
            split_succs.append([u])
            split_weight.append(2 * edge_weight[v][u])
            split_succs[v].append(mid)
    vals = max_mean_value_function(split_succs, split_weight)
    return vals[root]


def best_response_value(game: Game, others: StrategyProfile, player: int,
                        start: int | None = None) -> Fraction:
    """Exact supremum of ``player``'s mean payoff against a committed profile.

    Builds the one-player arena over (state, coalition memory) pairs; since
    single-player mean-payoff optima are positional, the supremum over all
    responses (finite or infinite memory) is the best reachable cycle mean.
    """
    if player in others.players:
        raise ValueError("responding player must not appear in the committed profile")
    expected = [i for i in range(game.n_players) if i != player]
    if sorted(others.players) != expected:
        raise ValueError("committed profile must cover exactly the other players")
    for p, st in zip(others.players, others.strategies):
        st.validate(game, p)

    coalition = sorted(others.players)
    strat = {p: others.strategy_for(p) for p in coalition}
    root_state = game.initial if start is None else start
    root = (root_state, tuple(strat[p].initial for p in coalition))
    index = {root: 0}
    nodes = [root]
    succs: list[list[int]] = []
    weights: list[int] = []
    frontier = [0]
    while frontier:
        vi = frontier.pop()
        while len(succs) < len(nodes):
            succs.append([])
            weights.append(0)
        s, mems = nodes[vi]
        weights[vi] = game.weights[player][s]
        next_mems = tuple(strat[p].step[m][s] for p, m in zip(coalition, mems))
        outs = set()
        for a in game.protocol[player][s]:
            joint = [0] * game.n_players
            joint[player] = a
            for p, m in zip(coalition, mems):
                joint[p] = strat[p].act[m][s]
            succ = game.transitions[(s, tuple(joint))]
            outs.add((succ, next_mems))
        for node in sorted(outs):
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
                frontier.append(index[node])
            succs[vi].append(index[node])
    while len(succs) < len(nodes):
        succs.append([])
        weights.append(0)
    for vi, node in enumerate(nodes):
        weights[vi] = game.weights[player][node[0]]
    return max_mean_value_function(succs, weights)[0]


@dataclass(frozen=True)
class PunishmentResult:
    """Per-state punishment values plus a positional coalition witness.

    ``coalition[s]`` maps each punishing player to the action it commits
    at ``s`` under an optimal punishment of ``player``.
    """

    player: int
    values: tuple[Fraction, ...]
    coalition: tuple[Mapping[int, int], ...]


def _response_classes(game: Game, player: int):
    """Collapse coalition action profiles by their induced response map.

    At each state, two coalition profiles that give the deviating player
    the same action-to-successor map are interchangeable; only one
    representative (lex-least) is kept.
    """
    others = [j for j in range(game.n_players) if j != player]
    per_state = []
    for s in range(game.n_states):
        dev_actions = game.protocol[player][s]
        seen: dict[tuple[int, ...], dict[int, int]] = {}
        for combo in itertools.product(*(game.protocol[j][s] for j in others)):
            joint = [0] * game.n_players
            for j, a in zip(others, combo):
                joint[j] = a
            rmap = []
            for a in dev_actions:
                joint[player] = a
                rmap.append(game.transitions[(s, tuple(joint))])
            key = tuple(rmap)
            if key not in seen:
                seen[key] = dict(zip(others, combo))
        per_state.append(sorted(seen.items()))
    return per_state


def _eval_committed(game: Game, player: int, per_state, choice: Sequence[int]):
    """Deviator's exact value per state once the coalition commits ``choice``."""
    succs = []
    for s in range(game.n_states):
        rmap, _ = per_state[s][choice[s]]
        succs.append(sorted(set(rmap)))
    weights = [game.weights[player][s] for s in range(game.n_states)]
    return max_mean_value_function(succs, weights)


def _farey(n: int) -> list[tuple[int, int]]:
    """Fractions ``p/q`` in [0, 1) with ``q <= n``, ascending, as pairs."""
    out = []
    a, b, c, d = 0, 1, 1, n
    while a < b:
        out.append((a, b))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


class _Lifting:
    """Worklist lifting towards the least progress measure of an energy game.

    At ``s`` one side picks a class ``moves[s][c]``, the other a successor
    in it, and the energy player's energy changes by ``gain[s]``.  With
    ``outer, inner = min, max`` the energy player picks the class; with
    ``max, min`` it picks the successor.  ``credit[s]`` only rises, and a
    credit of ``top`` (one more than the sum of the negative gains, which
    bounds every winning credit) means no credit keeps the energy
    nonnegative forever.
    """

    def __init__(self, moves, preds, gain: Sequence[int], outer, inner):
        self.moves, self.preds, self.gain = moves, preds, gain
        self.outer, self.inner = outer, inner
        self.top = 1 + sum(-g for g in gain if g < 0)
        self.credit = [0] * len(moves)
        self.work = list(range(len(moves)))
        self.queued = [True] * len(moves)

    def run(self, pops: int = -1) -> bool:
        """Lift at most ``pops`` states (all, if negative); True once final."""
        moves, preds, gain, top = self.moves, self.preds, self.gain, self.top
        outer, inner = self.outer, self.inner
        credit, work, queued = self.credit, self.work, self.queued
        while work and pops:
            pops -= 1
            s = work.pop()
            queued[s] = False
            need = outer(inner(credit[u] for u in cls) for cls in moves[s])
            need = top if need == top else min(top, need - gain[s])
            if need > credit[s]:
                credit[s] = need
                for t in preds[s]:
                    if not queued[t]:
                        queued[t] = True
                        work.append(t)
        return not work

    def raise_to_top(self, states: Iterable[int]) -> None:
        """Give ``states`` credit ``top`` and requeue their predecessors."""
        credit, work, queued = self.credit, self.work, self.queued
        for s in states:
            if credit[s] != self.top:
                credit[s] = self.top
                for t in self.preds[s]:
                    if not queued[t]:
                        queued[t] = True
                        work.append(t)


def _strict_dual(moves: Sequence[Sequence[Sequence[int]]],
                 preds: Sequence[Iterable[int]], gain: Sequence[int]) -> _Lifting:
    """The deviator's energy game on the coalition's arena, with gains
    ``-n*gain[s] - 1``: the deviator wins exactly where the coalition loses.

    Optimal play on both sides is positional, so it ends in a cycle of at
    most ``n`` states.  The coalition loses where that cycle's integer gain
    sum is negative, so at most -1, and its mean gain at most ``-1/n``:
    exactly where the mean dual gain is at least 0.
    """
    n = len(moves)
    return _Lifting(moves, preds, [-n * g - 1 for g in gain], max, min)


def _coalition_credits(moves: Sequence[Sequence[Sequence[int]]],
                       preds: Sequence[Iterable[int]],
                       gain: Sequence[int]) -> tuple[list[int], int]:
    """Least progress measure of the coalition's energy game.

    At ``s`` the coalition picks a class ``moves[s][c]``, the deviator picks
    a successor in it, and the coalition's energy changes by ``gain[s]``.
    Returns each state's least initial credit and the bound ``top``: a
    credit of ``top`` means no credit keeps the energy nonnegative forever.

    Where the coalition loses, its credits climb to ``top`` one cycle
    deficit at a time, as many lifts as the gains are wide; where it wins,
    the dual's credits do.  So once the lifting has run four pops per
    state (most liftings of small games end sooner, and would only pay for
    a dual), the strict dual (:func:`_strict_dual`) is lifted in lockstep
    with it, one pop each.  If the dual finishes first, its winners get
    credit ``top`` and the coalition's lifting finishes on the rest.  Every
    credit stays at or below the least measure all along, and lifting from
    below it ends on it, so the result is the one-sided lifting's.
    """
    n = len(moves)
    coalition = _Lifting(moves, preds, gain, min, max)
    if coalition.run(4 * n):
        return coalition.credit, coalition.top
    deviator = _strict_dual(moves, preds, gain)
    while not coalition.run(1):
        if deviator.run(1):
            coalition.raise_to_top(
                s for s in range(n) if deviator.credit[s] < deviator.top)
            coalition.run()
            break
    return coalition.credit, coalition.top


def punishment_values(game: Game, player: int) -> PunishmentResult:
    """Least mean payoff the rest of the players can impose on ``player``.

    The coalition commits a positional strategy first and the deviating
    player best-responds knowing it.  Every value is the mean of a cycle of
    at most ``n`` states, so it is one of the candidates ``p/q`` with
    ``q <= n`` between the player's least and greatest weight.  The
    coalition holds the deviator to ``p/q`` or below from exactly the states
    where it wins the energy game with gains ``p - q*w``; a binary search
    per state, over measures cached by candidate, finds each value.

    The witness commits, at each state, a class whose successors all have
    finite credit at that state's own value and whose lift does not raise
    the credit.  It is checked against the deviator's exact best response
    before it is returned; a mismatch raises :class:`SolverLimitError`.
    """
    per_state = _response_classes(game, player)
    n = game.n_states
    moves = [[sorted(set(rmap)) for rmap, _ in classes] for classes in per_state]
    preds: list[set[int]] = [set() for _ in range(n)]
    for s in range(n):
        for cls in moves[s]:
            for u in cls:
                preds[u].add(s)
    weights = game.weights[player]
    lo, hi = min(weights), max(weights)
    # Candidate k is t + p/q with t = lo + k // F and p/q the (k % F)-th
    # Farey fraction, ascending; the last one is hi.  Computed on demand:
    # the list would grow with the weight range.
    farey = _farey(n)
    last = (hi - lo) * len(farey)

    def cand(k: int) -> tuple[int, int]:
        if k == last:
            return hi, 1
        t, j = divmod(k, len(farey))
        p, q = farey[j]
        return (lo + t) * q + p, q

    solved: dict[int, tuple[list[int], int]] = {}

    def credits(k: int) -> tuple[list[int], int]:
        if k not in solved:
            p, q = cand(k)
            solved[k] = _coalition_credits(moves, preds, [p - q * w for w in weights])
        return solved[k]

    # The coalition wins at candidate k iff the value is at most cand(k);
    # the greatest weight always bounds the value.
    index = []
    for s in range(n):
        a, b = 0, last
        while a < b:
            mid = (a + b) // 2
            credit, top = credits(mid)
            if credit[s] < top:
                b = mid
            else:
                a = mid + 1
        index.append(a)

    choice = []
    for s, k in enumerate(index):
        credit, _ = credits(k)
        choice.append(min(range(len(moves[s])),
                          key=lambda c: max(credit[u] for u in moves[s][c])))
    values = tuple(Fraction(*cand(k)) for k in index)
    if tuple(_eval_committed(game, player, per_state, choice)) != values:
        raise SolverLimitError(
            f"punishment witness for player {game.player_names[player]!r} "
            "does not hold the deviator to the computed values"
        )
    witness = tuple(dict(per_state[s][c][1]) for s, c in enumerate(choice))
    return PunishmentResult(player=player, values=values, coalition=witness)

"""Exact zero-sum mean-payoff machinery behind equilibrium certification.

Three layers live here:

* Karp-style maximum mean cycle, exact over int weights.
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
  Lifting from any start at or below the least measure ends on it, which
  two shortcuts use, each exact for that reason or by monotonicity:

  - a warm start: least measures scale with the gains, and a larger
    candidate has larger gains, so the measure of the nearest solved
    candidate above, scaled to the new denominator and rounded up, starts
    each energy game (in the spirit of Comin and Rizzi's reuse of
    progress measures across energy games, Algorithmica 2017);
  - a bracket from a related solve: values are monotone in the player's
    own weights and rise by at most the largest weight increase, so a
    solve of a row at or below this one bounds each state's search.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .games import Game, StrategyProfile, check_player


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


def _karp_max_mean(preds: Sequence[Sequence[int]], gain: Sequence[int]) -> Fraction:
    """Max mean cycle of a strongly connected graph with at least one edge.

    Node ``v`` gains ``gain[v]`` on each step it starts, and ``preds[u]``
    lists the nodes that step to ``u``.  Every node has a predecessor, so a
    walk of every length ends at every node: the walk table holds plain
    ints, and only the candidate means are ``Fraction``s.
    """
    n = len(gain)
    # F[k][v] = max weight of a k-edge walk from the pseudo-source.
    table = [[0] * n]
    for _ in range(n):
        step = [f + g for f, g in zip(table[-1], gain)]
        table.append([max(map(step.__getitem__, p)) for p in preds])
    return max(min(Fraction(table[n][v] - table[k][v], n - k) for k in range(n))
               for v in range(n))


def max_mean_value_function(succs: Sequence[Sequence[int]],
                            weight: Sequence[int]) -> list[Fraction]:
    """Per node, the largest mean of any cycle reachable from it.

    Every node must have out-degree >= 1 so a cycle is always reachable.
    A component takes the best value of its successors outside it and, if
    it holds a cycle (two or more nodes, or a self-loop), its Karp mean.
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
    values: list[Fraction] = []
    # Tarjan emits components in reverse topological order, so successors
    # of a component are already resolved when we reach it.
    for ci, comp in enumerate(comps):
        pos = {v: k for k, v in enumerate(comp)}
        preds: list[list[int]] = [[] for _ in comp]
        best = []
        for k, v in enumerate(comp):
            for u in succs[v]:
                if comp_of[u] == ci:
                    preds[pos[u]].append(k)
                else:
                    best.append(values[comp_of[u]])
        # The first node has a predecessor inside iff the component holds a cycle.
        if preds[0]:
            best.append(_karp_max_mean(preds, [weight[v] for v in comp]))
        values.append(max(best))
    return [values[comp_of[v]] for v in range(n)]


def best_response_value(game: Game, others: StrategyProfile, player: int) -> Fraction:
    """Exact supremum of ``player``'s mean payoff against a committed profile.

    Builds the one-player arena over (state, coalition memory) pairs; since
    single-player mean-payoff optima are positional, the supremum over all
    responses (finite or infinite memory) is the best reachable cycle mean.
    """
    check_player(game, player)
    if player in others.players:
        raise ValueError("responding player must not appear in the committed profile")
    expected = [i for i in range(game.n_players) if i != player]
    if sorted(others.players) != expected:
        raise ValueError("committed profile must cover exactly the other players")
    for p, st in zip(others.players, others.strategies):
        st.validate(game, p)

    coalition = sorted(others.players)
    strat = {p: others.strategy_for(p) for p in coalition}
    root = (game.initial, tuple(strat[p].initial for p in coalition))
    index = {root: 0}
    nodes = [root]
    succs: list[list[int]] = [[]]
    frontier = [0]
    while frontier:
        vi = frontier.pop()
        s, mems = nodes[vi]
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
                succs.append([])
                frontier.append(index[node])
            succs[vi].append(index[node])
    weights = [game.weights[player][s] for s, _ in nodes]
    return max_mean_value_function(succs, weights)[0]


@dataclass(frozen=True)
class PunishmentResult:
    """Per-state punishment values plus a positional coalition witness.

    ``levels`` are the distinct values, ascending, ``ranks[s]`` the index of
    state ``s``'s value in them, and ``values[s]`` is ``levels[ranks[s]]``
    (the same object).  ``coalition[s]`` is the joint action the punishing
    players commit at ``s`` under an optimal punishment of ``player``: entry
    ``j`` is player ``j``'s action, and the punished player's entry is unused.
    """

    player: int
    levels: tuple[Fraction, ...]
    ranks: tuple[int, ...]
    values: tuple[Fraction, ...]
    coalition: tuple[tuple[int, ...], ...]


def _farey(n: int) -> list[tuple[int, int]]:
    """Fractions ``p/q`` in [0, 1) with ``q <= n``, ascending, as pairs."""
    out = []
    a, b, c, d = 0, 1, 1, n
    while a < b:
        out.append((a, b))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


def _top(gain: Sequence[int]) -> int:
    """One more than the sum of the negative gains: no winning credit reaches it."""
    return 1 + sum(-g for g in gain if g < 0)


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

    def __init__(self, moves, preds, gain: Sequence[int], outer, inner,
                 credit: list[int] | None = None):
        self.moves, self.preds, self.gain = moves, preds, gain
        self.outer, self.inner = outer, inner
        self.top = _top(gain)
        # A start at or below the least measure ends on it, like zero does.
        self.credit = [0] * len(moves) if credit is None else credit
        self.work = list(range(len(moves)))
        self.queued = [True] * len(moves)

    def run(self, pops: int = -1) -> bool:
        """Lift at most ``pops`` states (all, if negative); True once final."""
        moves, preds, gain, top = self.moves, self.preds, self.gain, self.top
        outer, inner = self.outer, self.inner
        credit, work, queued = self.credit, self.work, self.queued
        at = credit.__getitem__
        while work and pops:
            pops -= 1
            s = work.pop()
            queued[s] = False
            need = outer([inner(map(at, cls)) for cls in moves[s]])
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
                       preds: Sequence[Iterable[int]], gain: Sequence[int],
                       start: list[int] | None = None) -> tuple[list[int], int]:
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
    below it ends on it, so the result is the one-sided lifting's.  So is
    the result of a ``start`` at or below the least measure, which the
    coalition's lifting then starts from instead of zero.
    """
    n = len(moves)
    coalition = _Lifting(moves, preds, gain, min, max, start)
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


def _warm_start(above: Sequence[int], top_above: int, q_above: int,
                q: int, top: int) -> list[int]:
    """Credits at or below the least measure of the energy game at candidate
    ``p/q``, from the least measure ``above`` (bound ``top_above``) of the
    same arena's game at a larger candidate with denominator ``q_above``.

    Least measures scale with the gains: ``above[s] / q_above`` is the
    least real credit for the gains ``p_above/q_above - w``.  Those gains
    exceed ``p/q - w``, whose least real credit, the sought credit over
    ``q``, is therefore at least as large: each credit is at least
    ``above[s] * q / q_above``, rounded up, and ``top`` where the coalition
    already loses above.  No finite start reaches ``top``, so none needs a
    cap: ``(top_above - 1) / q_above`` and ``(top - 1) / q`` are the sums of
    the weights' excess over each candidate, and the first candidate is the
    larger.
    """
    return [top if c == top_above else -(-c * q // q_above) for c in above]


def punishment_values(game: Game, player: int,
                      related: tuple[Sequence[int], PunishmentResult] | None = None,
                      ) -> PunishmentResult:
    """Least mean payoff the rest of the players can impose on ``player``.

    The coalition commits a positional strategy first and the deviating
    player best-responds knowing it.  Every value is the mean of a cycle of
    at most ``n`` states, so it is one of the candidates ``p/q`` with
    ``q <= n`` between the player's least and greatest weight.  The
    coalition holds the deviator to ``p/q`` or below from exactly the states
    where it wins the energy game with gains ``p - q*w``; a binary search
    per state, over measures cached by candidate, finds each value.  Each
    energy game's lifting starts from the measure of the nearest solved
    candidate above it, scaled to its own (:func:`_warm_start`).

    ``related``, when given, is the weight row and the result of an earlier
    solve for ``player`` on the same arena, with the row pointwise at or
    below ``player``'s row here.  Values are monotone in the player's own
    weights and rise by at most the largest weight increase ``d``, so each
    state's value lies between its related value ``v`` and ``v + d``; its
    search is kept to that range and probes its lower end first, where
    most values stay.

    The witness commits, at each state, a class whose successors all have
    finite credit at that state's own value and whose lift does not raise
    the credit.  It is checked against the deviator's exact best response
    before it is returned; a mismatch raises :class:`SolverLimitError`.
    """
    check_player(game, player)
    per_state = game.arena.response_classes(player)
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
    order: list[int] = []  # the solved candidates, ascending

    def credits(k: int) -> tuple[list[int], int]:
        if k not in solved:
            p, q = cand(k)
            gain = [p - q * w for w in weights]
            start = None
            above = bisect.bisect(order, k)
            if above < len(order):
                credit, top = solved[order[above]]
                start = _warm_start(credit, top, cand(order[above])[1], q, _top(gain))
            solved[k] = _coalition_credits(moves, preds, gain, start)
            bisect.insort(order, k)
        return solved[k]

    # Each state's range of candidate indices; the greatest weight always
    # bounds the value.
    ranges = [(0, last)] * n
    if related is not None:
        row, base = related
        if base.player != player or len(row) != n or not all(map(operator.le, row, weights)):
            raise ValueError("a related solve is the same player's on a row at or below this one")
        rise = max(map(operator.sub, weights, row))
        place = {pq: j for j, pq in enumerate(farey)}

        def at(x: Fraction) -> int:
            """Index of the candidate ``x``, or of the nearer end past the range."""
            if x <= lo:
                return 0
            if x >= hi:
                return last
            t = x.numerator // x.denominator
            return (t - lo) * len(farey) + place[x.numerator - t * x.denominator, x.denominator]

        ranges = [(at(v), at(v + rise)) for v in base.values]

    # The coalition wins at candidate k iff the value is at most cand(k).
    index = []
    for s, (a, b) in enumerate(ranges):
        # Most values stay at the related value: it is probed first.
        mid = a if related is not None else (a + b) // 2
        while a < b:
            credit, top = credits(mid)
            if credit[s] < top:
                b = mid
            else:
                a = mid + 1
            mid = (a + b) // 2
        index.append(a)

    choice = []
    for s, k in enumerate(index):
        credit, _ = credits(k)
        choice.append(min(range(len(moves[s])),
                          key=lambda c: max(credit[u] for u in moves[s][c])))
    # Candidates ascend with their index, so the distinct indices rank the values.
    distinct = sorted(set(index))
    levels = tuple(Fraction(*cand(k)) for k in distinct)
    ranks = tuple(map({k: r for r, k in enumerate(distinct)}.get, index))
    values = tuple(levels[r] for r in ranks)
    committed = [moves[s][c] for s, c in enumerate(choice)]
    if tuple(max_mean_value_function(committed, weights)) != values:
        raise SolverLimitError(
            f"punishment witness for player {game.player_names[player]!r} "
            "does not hold the deviator to the computed values"
        )
    return PunishmentResult(player, levels, ranks, values,
                            tuple(per_state[s][c][1] for s, c in enumerate(choice)))

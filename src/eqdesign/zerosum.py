"""Exact zero-sum mean-payoff machinery behind equilibrium certification.

Three layers live here:

* Karp-style maximum mean cycle, exact over int weights.
* Best-response values: the supremum a single player can secure against a
  committed finite-memory coalition (positional optima make this a max
  mean cycle in the committed product).
* Punishment values: the least mean payoff a coalition can impose on one
  player.  The information order is coalition-commits-first, so the game
  collapses to a turn-based game: at each state the coalition picks a
  response class and the deviator a successor in it.  Values are solved by
  strategy improvement for the coalition (Bjorklund and Vorobyov, Discrete
  Applied Mathematics 2007): the deviator's exact best response to a
  positional commitment is a one-player graph whose values (Karp) and
  potentials, normalised on its zero cycles as in Cochet-Terrasson and
  Gaubert (C. R. Acad. Sci. 2006), show which classes improve.  When none
  does, the potentials also give the deviator a positional answer to every
  class, and one Karp call per side proves each value from both sides.
"""

from __future__ import annotations

import math
from collections import deque
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
    ints, means are compared as int pairs, and only the answer is a ``Fraction``.
    """
    n = len(gain)
    # F[k][v] = max weight of a k-edge walk from the pseudo-source.
    table = [[0] * n]
    for _ in range(n):
        step = [f + g for f, g in zip(table[-1], gain)]
        table.append([max(map(step.__getitem__, p)) for p in preds])
    last = table[n]
    best = None
    for v in range(n):
        # Karp: max over v of min over k of (F[n][v] - F[k][v]) / (n - k).
        num, den = last[v], n
        for k in range(1, n):
            a, b = last[v] - table[k][v], n - k
            if a * den < num * b:
                num, den = a, b
        if best is None or num * best[1] > best[0] * den:
            best = num, den
    return Fraction(*best)


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
    return best_response_unchecked(game, others, player)


def best_response_unchecked(game: Game, others: StrategyProfile, player: int) -> Fraction:
    """:func:`best_response_value` without its checks, for a profile this
    library built for ``game``: a certificate's grim profile."""
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
    (the same object), each proved from both sides.  ``coalition[s]`` is the
    least joint action of the class the punishers commit at ``s``: entry
    ``j`` is player ``j``'s action, and the punished player's is unused.
    """

    player: int
    levels: tuple[Fraction, ...]
    ranks: tuple[int, ...]
    values: tuple[Fraction, ...]
    coalition: tuple[tuple[int, ...], ...]


def _longest(level: Sequence[Sequence[int]], r: Sequence[int], start: list) -> list:
    """Per state, the longest walk over the edges ``s -> t in level[s]``,
    gaining ``r[s]`` per step from ``s``, that stops at some ``t`` and gains
    ``start[t]`` (``-inf`` where it may not stop).  No cycle may gain."""
    preds: list[list[int]] = [[] for _ in level]
    for s, ts in enumerate(level):
        for t in ts:
            preds[t].append(s)
    h = list(start)
    queued = [x != -math.inf for x in h]
    work = deque(t for t in range(len(h)) if queued[t])
    while work:
        t = work.popleft()
        queued[t] = False
        for s in preds[t]:
            if r[s] + h[t] > h[s]:
                h[s] = r[s] + h[t]
                if not queued[s]:
                    queued[s] = True
                    work.append(s)
    return h


def _evaluate(committed: Sequence[Sequence[int]], weights: Sequence[int],
              old_values: Sequence, old_h: Sequence | None) -> tuple:
    """The deviator's best response to the committed classes: per state its
    value, the distinct values ascending, its value's rank and its potential.

    At value ``p/q`` state ``s`` gains ``r[s] = q*w[s] - p``, and a level
    edge goes to a committed successor of equal value.  The zero cycles are
    the non-trivial components of the level edges tight under ``pi``, the
    longest level walk that may stop anywhere.  Each one's least state is a
    reference, with its potential in ``old_h`` if its value did not change,
    else 0.  ``h`` is the longest level walk to a reference plus its potential.
    """
    n = len(committed)
    values = max_mean_value_function(committed, weights)
    order = sorted(range(n), key=values.__getitem__)
    levels, rank = [values[order[0]]], [0] * n
    for s in order:
        if values[s] != levels[-1]:
            levels.append(values[s])
        rank[s] = len(levels) - 1
    r = [levels[k].denominator * w - levels[k].numerator for k, w in zip(rank, weights)]
    level = [[t for t in ts if rank[t] == rank[s]] for s, ts in enumerate(committed)]
    pi = _longest(level, r, [0] * n)
    tight = [[t for t in ts if pi[s] == r[s] + pi[t]] for s, ts in enumerate(level)]
    start = [-math.inf] * n
    for comp in strongly_connected_components(tight):
        z = min(comp)
        if len(comp) > 1 or z in tight[z]:
            start[z] = old_h[z] if old_values[z] == values[z] else 0
    return values, levels, rank, _longest(level, r, start)


def _improve(moves: Sequence[Sequence[Sequence[int]]], choice: list[int],
             weights: Sequence[int], levels: list[Fraction], rank: list[int],
             h: list) -> bool:
    """Switch each state whose best class beats its committed one, worth
    ``(rank[s], h[s])``, to that class; True if any state switched.  A
    class is worth what the deviator gets by answering it: its successors'
    greatest rank and, at that rank's value ``p/q``, ``q*w[s] - p`` plus
    their greatest potential at that rank."""
    switched = False
    for s, classes in enumerate(moves):
        worth = []
        for cls in classes:
            top = max(rank[t] for t in cls)
            x = levels[top]
            worth.append((top, x.denominator * weights[s] - x.numerator
                          + max(h[t] for t in cls if rank[t] == top)))
        best = min(range(len(classes)), key=worth.__getitem__)
        if worth[best] < (rank[s], h[s]):
            choice[s] = best
            switched = True
    return switched


def punishment_values(game: Game, player: int) -> PunishmentResult:
    """Least mean payoff the rest of the players can impose on ``player``.

    The coalition commits a positional class choice first and the deviating
    player best-responds knowing it.  Strategy improvement for the
    coalition starts every state at class 0, then evaluates the commitment
    (:func:`_evaluate`) and switches classes (:func:`_improve`) until no
    state switches.  It terminates: while values stay, no new zero cycle
    can appear, since it would be tight under the old potentials and a
    switched state is strictly slack, and the potentials on the zero cycles
    that remain are kept.  So between losses of zero cycles the potentials
    are a function of the commitment and strictly fall; values, also a
    function of the commitment, only fall.

    Both sides are proved: the last evaluation holds the deviator to the
    values, and one Karp call, with weights negated, on the deviator's
    answer to each class, its successor of greatest ``(rank, h)``, must
    give exactly the negated values, so no commitment holds it lower.
    Otherwise :class:`SolverLimitError` is raised.
    """
    check_player(game, player)
    per_state = game.arena.response_classes(player)
    moves = [[sorted(set(rmap)) for rmap, _ in classes] for classes in per_state]
    weights, n = game.weights[player], game.n_states
    choice, values, h = [0] * n, [None] * n, None
    while True:
        values, levels, rank, h = _evaluate(
            [moves[s][c] for s, c in enumerate(choice)], weights, values, h)
        if not _improve(moves, choice, weights, levels, rank, h):
            break
    answers = [[max(cls, key=lambda t: (rank[t], h[t])) for cls in cs] for cs in moves]
    if max_mean_value_function(answers, [-w for w in weights]) != [-v for v in values]:
        raise SolverLimitError(
            f"punishment strategies for player {game.player_names[player]!r} "
            "do not meet at the computed values")
    return PunishmentResult(player, tuple(levels), tuple(rank), tuple(levels[k] for k in rank),
                            tuple(per_state[s][c][1] for s, c in enumerate(choice)))

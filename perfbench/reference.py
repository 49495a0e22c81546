"""Reference checks written independently of the code under test.

Nothing here calls into ``eqdesign``: the benchmark reads games, lassos and
strategy profiles as plain tables and recomputes payoffs, best responses,
tour costs and Hamiltonian cycles from first principles, so a wrong answer
from the program cannot be confirmed by the program itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def lasso_payoffs(game, lasso):
    """Per-player and global cycle means of a lasso that starts at the initial state.

    Raises ``ValueError`` when the lasso does not start at the initial state
    or a step is not a transition of the game.
    """
    seq = list(lasso.prefix_states) + list(lasso.cycle_states)
    moves = list(lasso.prefix_moves) + list(lasso.cycle_moves)
    if not seq or seq[0] != game.initial:
        raise ValueError("lasso does not start at the initial state")
    for k, (s, joint) in enumerate(zip(seq, moves)):
        nxt = seq[k + 1] if k + 1 < len(seq) else lasso.cycle_states[0]
        for i, a in enumerate(joint):
            if a not in game.protocol[i][s]:
                raise ValueError(f"action {a} not allowed for player {i} at state {s}")
        if game.transitions[(s, tuple(joint))] != nxt:
            raise ValueError(f"step {k} is not a transition of the game")
    cyc = lasso.cycle_states
    per = tuple(
        Fraction(sum(game.weights[i][s] for s in cyc), len(cyc))
        for i in range(len(game.weights))
    )
    return per, Fraction(sum(game.global_weights[s] for s in cyc), len(cyc))


def _strategies(profile):
    return dict(zip(profile.players, profile.strategies))


def profile_payoffs(game, profile):
    """Payoffs of the play the full profile produces from the initial state."""
    strat = _strategies(profile)
    order = sorted(strat)
    node = (game.initial, tuple(strat[p].initial for p in order))
    seen = {}
    trail = []
    while node not in seen:
        seen[node] = len(trail)
        trail.append(node)
        s, mems = node
        joint = tuple(strat[p].act[m][s] for p, m in zip(order, mems))
        nxt = tuple(strat[p].step[m][s] for p, m in zip(order, mems))
        node = (game.transitions[(s, joint)], nxt)
    cyc = [s for s, _ in trail[seen[node]:]]
    per = tuple(
        Fraction(sum(game.weights[i][s] for s in cyc), len(cyc))
        for i in range(len(game.weights))
    )
    return per, Fraction(sum(game.global_weights[s] for s in cyc), len(cyc))


def response_value(game, profile, player):
    """Best mean payoff ``player`` can reach against the other strategies.

    The one-player arena over (state, memories of the others) is explored
    from the initial state; the answer is the largest cycle mean reachable
    from there, computed by Karp's algorithm inside each strongly connected
    component.
    """
    strat = _strategies(profile)
    order = [p for p in sorted(strat) if p != player]
    root = (game.initial, tuple(strat[p].initial for p in order))
    index = {root: 0}
    nodes = [root]
    succs = []
    k = 0
    while k < len(nodes):
        s, mems = nodes[k]
        nxt_mems = tuple(strat[p].step[m][s] for p, m in zip(order, mems))
        outs = []
        for a in game.protocol[player][s]:
            joint = [0] * len(game.weights)
            joint[player] = a
            for p, m in zip(order, mems):
                joint[p] = strat[p].act[m][s]
            node = (game.transitions[(s, tuple(joint))], nxt_mems)
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            outs.append(index[node])
        succs.append(outs)
        k += 1
    weights = [game.weights[player][s] for s, _ in nodes]
    return max(_karp(comp, succs, weights) for comp in _cyclic_components(succs))


def _cyclic_components(succs):
    """Strongly connected components that carry a cycle (iterative Tarjan)."""
    n = len(succs)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succs[v]):
                work.append((v, i + 1))
                w = succs[v][i]
                if index[w] is None:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succs[v]:
                    comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def _karp(comp, succs, weights):
    """Maximum cycle mean of one strongly connected component."""
    members = set(comp)
    n = len(comp)
    src = comp[0]
    dist = [{src: 0}]
    for _ in range(n):
        cur = dist[-1]
        nxt = {}
        for v, d in cur.items():
            for w in succs[v]:
                if w in members:
                    cand = d + weights[v]
                    if w not in nxt or cand > nxt[w]:
                        nxt[w] = cand
        dist.append(nxt)
    best = None
    for v, dn in dist[n].items():
        worst = min(
            Fraction(dn - dist[k][v], n - k) for k in range(n) if v in dist[k]
        )
        if best is None or worst > best:
            best = worst
    return best


def certify_equilibrium(game, witness):
    """Why ``witness`` is not an equilibrium outcome, or None if it is one.

    Checks that the lasso is a play of the game, that the profile produces
    it, that the reported payoffs are the lasso's, and that no player gains
    by any unilateral deviation.
    """
    try:
        per, glob = lasso_payoffs(game, witness.lasso)
    except ValueError as exc:
        return f"lasso: {exc}"
    if (per, glob) != (tuple(witness.player_payoffs), witness.global_payoff):
        return "reported payoffs differ from the lasso's"
    if profile_payoffs(game, witness.profile) != (per, glob):
        return "profile does not produce the lasso's payoffs"
    for i in range(len(game.weights)):
        best = response_value(game, witness.profile, i)
        if best > per[i]:
            return f"player {i} gains by deviating: {best} > {per[i]}"
    return None


def optimal_tour_cost(vertices, costs):
    """Least cost of a tour visiting every vertex once (brute force)."""
    first, rest = vertices[0], vertices[1:]
    best = None
    for perm in itertools.permutations(rest):
        tour = (first,) + perm
        c = sum(costs[(tour[k], tour[(k + 1) % len(tour)])] for k in range(len(tour)))
        best = c if best is None else min(best, c)
    return best


def has_hamiltonian_cycle(vertices, edges):
    """True iff the directed graph has a cycle through every vertex once."""
    present = set(edges)
    first, rest = vertices[0], vertices[1:]
    for perm in itertools.permutations(rest):
        tour = (first,) + perm
        if all((tour[k], tour[(k + 1) % len(tour)]) in present for k in range(len(tour))):
            return True
    return False

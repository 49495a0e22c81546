"""Tuple-and-Fraction lasso sweep: the reference the packed walk is tested against.

Walks tuples of weight sums (every player, then the global table) once per
move class and checks every closed cycle against the deviation ceilings
with ``Fraction`` comparisons, reading each ceiling's values from the
punishment tables.  It reads each ceiling record's allowed classes and
initial-state tree but none of the solver's walk, its successor lists or its
return distances, so it checks the packing, the shared successor lists and
the integer ceiling test.

``fraction_window_test`` and ``bisect_search`` are the same kind of
reference for the payoff rows: a query window checked with one ``Fraction``
per payoff, and the oracle binary search bisecting the sorted list of every
designer value instead of reading the extreme signature.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from eqdesign.design import SearchResult
from eqdesign.equilibria import NashLassoSolver, ThresholdQuery

from ceiling_oracle import ceiling_values


def oracle_signatures(solver: NashLassoSolver) -> list[tuple]:
    game = solver.game
    n = game.n_players
    wvecs = [
        tuple(game.weights[i][s] for i in range(n)) + (game.global_weights[s],)
        for s in range(game.n_states)
    ]
    out: list[tuple] = []
    seen: set[tuple] = set()
    for ci, cei in enumerate(solver._ceilings):
        allowed = cei.allowed
        dist = {s: d for s, (d, _, _) in cei.tree.items()}
        for anchor in sorted(dist):
            budget = solver.bound - dist[anchor]
            if budget < 1:
                continue
            back = _dists_to(allowed, anchor)
            for length, sums in _walk(allowed, anchor, budget, back, wvecs):
                if not _cycle_is_equilibrium(solver, cei.ranks, sums, length):
                    continue
                key = (anchor, length, sums)
                if key in seen:
                    continue
                seen.add(key)
                out.append((ci, anchor, length, sums, dist[anchor]))
    out.sort(key=lambda rec: (Fraction(rec[3][-1], rec[2]), rec[2], rec[1], rec[3]))
    return out


def _dists_to(allowed, target: int) -> dict[int, int]:
    members = range(target, len(allowed))
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for s in frontier:
            for p in members:
                if p not in dist and any(c.succ == s for c in allowed[p]):
                    dist[p] = dist[s] + 1
                    nxt.append(p)
        frontier = nxt
    return dist


def _walk(allowed, anchor: int, budget: int, back: dict[int, int],
          wvecs) -> list[tuple[int, tuple[int, ...]]]:
    zero = (0,) * len(wvecs[anchor])
    layer: dict[int, set[tuple[int, ...]]] = {anchor: {zero}}
    closures: list[tuple[int, tuple[int, ...]]] = []
    for k in range(budget):
        nxt: dict[int, set[tuple[int, ...]]] = {}
        for s, sums_set in layer.items():
            w = wvecs[s]
            for cls in allowed[s]:
                t = cls.succ
                if t < anchor:
                    continue
                if t == anchor:
                    for sums in sums_set:
                        closures.append((k + 1, tuple(a + b for a, b in zip(sums, w))))
                rem = budget - (k + 1)
                if t not in back or back[t] > rem:
                    continue
                bucket = nxt.setdefault(t, set())
                for sums in sums_set:
                    bucket.add(tuple(a + b for a, b in zip(sums, w)))
        layer = nxt
        if not layer:
            break
    return closures


def _cycle_is_equilibrium(solver: NashLassoSolver, ceiling: tuple,
                          sums: tuple[int, ...], length: int) -> bool:
    for i, c in enumerate(ceiling_values(solver, ceiling)):
        if i == solver.fixed or c is None:
            continue
        if Fraction(sums[i], length) < c:
            return False
    return True


def fraction_window_test(query: ThresholdQuery, sums: tuple[int, ...], length: int) -> bool:
    """Whether the cycle averages ``sums / length`` lie in the query window."""
    for i, (lo, hi) in enumerate(zip(query.lower, query.upper)):
        v = Fraction(sums[i], length)
        if v < lo or v > hi:
            return False
    g = Fraction(sums[-1], length)
    return query.global_lower <= g <= query.global_upper


def bisect_search(solver: NashLassoSolver, epsilon: Fraction, maximize: bool) -> SearchResult:
    """Oracle binary search whose probes bisect every designer value."""
    game = solver.game
    values = solver.global_values()

    def probe(lo: Fraction, hi: Fraction) -> bool:
        k = bisect.bisect_left(values, lo)
        return k < len(values) and values[k] <= hi

    min_w = Fraction(min(game.global_weights))
    max_w = Fraction(max(game.global_weights))
    if not values:
        # An empty equilibrium set is worth the least weight play can visit.
        reach = game.arena.reachable_states()
        return SearchResult(Fraction(min(game.global_weights[s] for s in reach)), 0, False)
    a1, a2 = min_w, max_w
    iterations = 0
    while a2 - a1 >= epsilon:
        iterations += 1
        mid = (a1 + a2) / 2
        if maximize:
            if probe(mid, a2):
                a1 = mid
            else:
                a2 = mid
        else:
            if probe(a1, mid):
                a2 = mid
            else:
                a1 = mid
    return SearchResult(a1 if maximize else a2, iterations, True)

"""Tuple-and-Fraction lasso sweep: the reference the packed walk is tested against.

Walks tuples of weight sums (every player, then the global table) once per
move class and checks every closed cycle against the deviation ceilings
with ``Fraction`` comparisons, reading each ceiling's values from the
punishment tables.  It reads the solver's ceilings, allowed classes and
initial-state tree but none of its walk, so it checks the packing, the
shared successor sets and the integer ceiling test.
"""

from __future__ import annotations

from fractions import Fraction

from eqdesign.equilibria import NashLassoSolver

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
    for ci, ceiling in enumerate(solver._ceilings):
        allowed = solver._allowed(ceiling)
        dist = {s: d for s, (d, _, _) in solver._tree(allowed).items()}
        for anchor in sorted(dist):
            budget = solver.bound - dist[anchor]
            if budget < 1:
                continue
            back = _dists_to(allowed, anchor)
            for length, sums in _walk(allowed, anchor, budget, back, wvecs):
                if not _cycle_is_equilibrium(solver, ceiling, sums, length):
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

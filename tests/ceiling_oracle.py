"""``Fraction`` move classes and ceiling lattice: the reference for the solver's ranks.

Builds each state's move classes with the greatest punishment value every
player could force by deviating (``None`` when it can force nothing), drops
dominated classes and closes the ceilings under joins, all on
``Fraction | None`` vectors with ``None`` below every value.  The solver keys
the same structures by ranks into each player's sorted punishment values;
``ceiling_values`` maps a rank vector back to values.  Deviation sets are
computed one joint action and one deviation at a time, independently of the
arena's move table.
"""

from __future__ import annotations

from fractions import Fraction

from eqdesign.equilibria import NashLassoSolver
from eqdesign.games import Game


def ceiling_values(solver: NashLassoSolver, ceiling: tuple[int, ...]) -> tuple:
    """A rank vector as punishment values read from ``solver.pun``; -1 is None."""
    return tuple(
        None if r < 0 else sorted(set(solver.pun[i].values))[r]
        for i, r in enumerate(ceiling)
    )


def _ceil_le(a: Fraction | None, b: Fraction | None) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def _vec_le(a: tuple, b: tuple) -> bool:
    return all(_ceil_le(x, y) for x, y in zip(a, b))


def _vec_join(a: tuple, b: tuple) -> tuple:
    out = []
    for x, y in zip(a, b):
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(max(x, y))
    return tuple(out)


def deviation_successors(game: Game, state: int, joint: tuple[int, ...],
                         player: int) -> set[int]:
    """Successors ``player`` can force from ``joint`` by a unilateral deviation.

    Deviations that land on the same successor as ``joint`` itself are
    dropped: strategies read states only, so they are unobservable.
    """
    base = game.transitions[(state, joint)]
    out: set[int] = set()
    for alt in game.protocol[player][state]:
        if alt == joint[player]:
            continue
        dev = game.transitions[(state, joint[:player] + (alt,) + joint[player + 1:])]
        if dev != base:
            out.add(dev)
    return out


def build_classes(solver: NashLassoSolver) -> list[list[tuple]]:
    """Per state, the kept ``(successor, ceiling values, joint)`` classes."""
    game = solver.game
    per_state: list[list[tuple]] = []
    for s in range(game.n_states):
        by_key: dict[tuple, tuple[int, ...]] = {}
        for joint in game.arena.joint_actions(s):
            succ = game.transitions[(s, joint)]
            devmax: list[Fraction | None] = []
            for i in range(game.n_players):
                if i == solver.fixed:
                    devmax.append(None)
                    continue
                devs = deviation_successors(game, s, joint, i)
                devmax.append(
                    max(solver.pun[i].values[d] for d in devs) if devs else None
                )
            key = (succ, tuple(devmax))
            if key not in by_key or joint < by_key[key]:
                by_key[key] = joint
        classes = [
            (succ, devmax, joint)
            for (succ, devmax), joint in sorted(
                by_key.items(), key=lambda kv: (kv[0][0], kv[1])
            )
        ]
        per_state.append([
            c for c in classes
            if not any(d[0] == c[0] and d[1] != c[1] and _vec_le(d[1], c[1])
                       for d in classes)
        ])
    return per_state


def build_ceilings(classes: list[list[tuple]], n_players: int) -> list[tuple]:
    """The join closure of every class ceiling and the all-None bottom, sorted."""
    seeds = {(None,) * n_players}
    for per_state in classes:
        for _, devmax, _ in per_state:
            seeds.add(devmax)
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for u in list(closed):
            j = _vec_join(v, u)
            if j not in closed:
                closed.add(j)
                frontier.append(j)
    return sorted(closed, key=lambda vec: tuple(
        -float("inf") if x is None else x for x in vec))

"""Brute-force punishment values: the reference the exact solver is tested against.

Enumerates every positional coalition commitment, evaluates the deviator's
exact best response to each by the simple-cycle brute force of
``max_mean_oracle`` (not by the solver's own Karp recurrence), and takes the
componentwise minimum.  An optimal positional punishment attains it at every
state at once.  Only usable on small games: the commitments multiply across
states.

``dict_coalition`` rebuilds the solver's coalition witness in the form it
had before it became one joint action per state.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from eqdesign.games import Game
from eqdesign.zerosum import _coalition_credits

from max_mean_oracle import brute_force_max_mean


def brute_force_punishment(game: Game, player: int) -> tuple[Fraction, ...]:
    per_state = game.arena.response_classes(player)
    best: list[Fraction] | None = None
    for choice in itertools.product(*(range(len(cs)) for cs in per_state)):
        succs = [sorted(set(per_state[s][c][0])) for s, c in enumerate(choice)]
        vals = brute_force_max_mean(succs, game.weights[player])
        best = vals if best is None else [min(a, b) for a, b in zip(best, vals)]
    return tuple(best)


def dict_coalition(game: Game, player: int,
                   values: tuple[Fraction, ...]) -> list[dict[int, int]]:
    """The coalition witness in its per-state dict form: at each state, the
    class whose successors need the least credit at that state's own value,
    as ``{punisher: action}`` from the class's least joint action."""
    per_state = game.arena.response_classes(player)
    moves = [[sorted(set(rmap)) for rmap, _ in classes] for classes in per_state]
    preds: list[set[int]] = [set() for _ in moves]
    for s, classes in enumerate(moves):
        for cls in classes:
            for u in cls:
                preds[u].add(s)
    out = []
    for s, v in enumerate(values):
        gains = [v.numerator - v.denominator * w for w in game.weights[player]]
        credit, _ = _coalition_credits(moves, preds, gains)
        c = min(range(len(moves[s])), key=lambda c: max(credit[u] for u in moves[s][c]))
        out.append({j: a for j, a in enumerate(per_state[s][c][1]) if j != player})
    return out

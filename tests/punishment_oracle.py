"""Brute-force punishment values: the reference the exact solver is tested against.

Enumerates every positional coalition commitment, evaluates the deviator's
exact best response to each by the simple-cycle brute force of
``max_mean_oracle`` (not by the solver's own Karp recurrence), and takes the
componentwise minimum.  An optimal positional punishment attains it at every
state at once.  Only usable on small games: the commitments multiply across
states.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from eqdesign.games import Game

from max_mean_oracle import brute_force_max_mean


def brute_force_punishment(game: Game, player: int) -> tuple[Fraction, ...]:
    per_state = game.arena.response_classes(player)
    best: list[Fraction] | None = None
    for choice in itertools.product(*(range(len(cs)) for cs in per_state)):
        succs = [sorted(set(per_state[s][c][0])) for s, c in enumerate(choice)]
        vals = brute_force_max_mean(succs, game.weights[player])
        best = vals if best is None else [min(a, b) for a, b in zip(best, vals)]
    return tuple(best)


"""Brute-force memoryless equilibria: a reference for the extreme equilibrium values.

A memoryless profile picks one joint action per state.  Played from the
initial state it runs into a cycle, whose mean weights are the payoffs.
It is an equilibrium when no player gains by deviating: against the
others' fixed actions a player's best response is the best cycle mean it
can reach, found by the simple-cycle brute force of ``max_mean_oracle``
(not by the solver's punishment or best-response code).  Every such
outcome is an equilibrium outcome, so the exact worst and best equilibrium
values must bracket its value.  Only usable on small games: the profiles
multiply across states.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from eqdesign.games import Game

from max_mean_oracle import brute_force_max_mean


def play(game: Game, choice: tuple) -> list[int]:
    """The cycle reached from the initial state when each state ``s`` plays
    ``choice[s]``, as its state list."""
    seen: dict[int, int] = {}
    path: list[int] = []
    s = game.initial
    while s not in seen:
        seen[s] = len(path)
        path.append(s)
        s = game.transitions[s, choice[s]]
    return path[seen[s]:]


def mean(weights, cycle: list[int]) -> Fraction:
    return Fraction(sum(weights[s] for s in cycle), len(cycle))


def best_response(game: Game, choice: tuple, player: int) -> Fraction:
    """``player``'s best mean payoff from the initial state against the
    others' actions in ``choice``."""
    succs = [sorted({game.transitions[s, (*joint[:player], a, *joint[player + 1:])]
                     for a in game.protocol[player][s]})
             for s, joint in enumerate(choice)]
    return brute_force_max_mean(succs, game.weights[player])[game.initial]


def memoryless_equilibrium_values(game: Game) -> set[Fraction]:
    """The designer values of every memoryless equilibrium of ``game``."""
    values = set()
    joints = [tuple(itertools.product(*(row[s] for row in game.protocol)))
              for s in range(game.n_states)]
    for choice in itertools.product(*joints):
        cycle = play(game, choice)
        if all(best_response(game, choice, i) <= mean(game.weights[i], cycle)
               for i in range(game.n_players)):
            values.add(mean(game.global_weights, cycle))
    return values

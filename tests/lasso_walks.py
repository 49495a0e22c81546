"""Lassos named by their state walks, for tests that pick a play by hand."""

from __future__ import annotations

from typing import Sequence

from eqdesign.games import Game, InvalidLassoError, Lasso


def lasso_from_states(game: Game, states: Sequence[int],
                      cycle_from: int) -> Lasso:
    """Build a lasso from a state walk, choosing lex-least realizing actions.

    ``states[cycle_from:]`` must return to ``states[cycle_from]``.
    """
    seq = list(states)
    moves = []
    for k, s in enumerate(seq):
        nxt = seq[k + 1] if k + 1 < len(seq) else seq[cycle_from]
        for joint in game.arena.joint_actions(s):
            if game.transitions[(s, joint)] == nxt:
                moves.append(joint)
                break
        else:
            raise InvalidLassoError(
                f"no joint action realizes {game.state_names[s]!r} -> "
                f"{game.state_names[nxt]!r}"
            )
    return Lasso(
        prefix_states=tuple(seq[:cycle_from]),
        cycle_states=tuple(seq[cycle_from:]),
        prefix_moves=tuple(moves[:cycle_from]),
        cycle_moves=tuple(moves[cycle_from:]),
    )

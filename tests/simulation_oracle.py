"""Step-by-step play of a profile: the reference ``run_profile`` is tested against.

Advances the state and every player's memory one step at a time for a fixed
number of steps, with no cycle detection, so the transcript is independent
of how ``run_profile`` finds the lasso.
"""

from __future__ import annotations

from eqdesign.games import Game, StrategyProfile


def simulate_states(game: Game, profile: StrategyProfile, n_steps: int,
                    start: int | None = None) -> list[int]:
    strats = [profile.strategy_for(i) for i in range(game.n_players)]
    state = game.initial if start is None else start
    mems = [st.initial for st in strats]
    out = []
    for _ in range(n_steps):
        out.append(state)
        joint = tuple(st.act[mems[i]][state] for i, st in enumerate(strats))
        nxt = game.transitions[(state, joint)]
        for i, st in enumerate(strats):
            mems[i] = st.step[mems[i]][state]
        state = nxt
    return out

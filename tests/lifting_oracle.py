"""One-sided progress-measure lifting: the reference for ``_coalition_credits``.

The coalition's energy game alone, lifted from zero with a worklist until
nothing changes.  Exact, but a losing state's credit climbs to ``top`` one
cycle deficit at a time, so its running time grows with the gains.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def one_sided_credits(moves: Sequence[Sequence[Sequence[int]]],
                      preds: Sequence[Iterable[int]],
                      gain: Sequence[int]) -> tuple[list[int], int]:
    n = len(moves)
    top = 1 + sum(-g for g in gain if g < 0)
    credit = [0] * n
    work = list(range(n))
    queued = [True] * n
    while work:
        s = work.pop()
        queued[s] = False
        need = min(max(credit[u] for u in cls) for cls in moves[s])
        need = top if need == top else min(top, need - gain[s])
        if need > credit[s]:
            credit[s] = need
            for t in preds[s]:
                if not queued[t]:
                    queued[t] = True
                    work.append(t)
    return credit, top

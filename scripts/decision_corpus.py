#!/usr/bin/env python3
"""Print one line per improvement decision of a fixed corpus.

The corpus is every decision of both methods (``certify`` and ``paper``),
both modes and delta in {1/2, 0, -1}, at budget 1, on 65 games: the
running example, the four criterion-5 Hamiltonian games, and
``gen_random_game(seed, 2, 3, 2)`` for seeds 0-39 and
``gen_random_game(seed, 3, 3, 2)`` for seeds 0-19.  That is 780 decisions.

Each line names the game, method, mode and delta, then the decision, the
baseline and the improved value, and short sha256 digests of the witness
machine's ``canonical_key()`` and of the witness lasso (``-`` for none);
or the refusal message.  A change meant to leave every answer alone is
checked by comparing the outputs of both trees byte for byte::

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/decision_corpus.py > after.txt
    cmp tests/decision_corpus.txt after.txt

``--games`` picks a slice of the game list, as Python's
``start:stop:step``.
"""

import argparse
import hashlib
from fractions import Fraction

from eqdesign.benchmarks import (
    CostDigraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_random_game,
)
from eqdesign.design import ImprovementQuery, decide_improvement
from eqdesign.zerosum import SolverLimitError

WITH_PATH = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))
WITHOUT_PATH = CostDigraph(("v1", "v2", "v3"), (("v1", "v2"), ("v1", "v3")))
DELTAS = (Fraction(1, 2), Fraction(0), Fraction(-1))


def games() -> list:
    """The corpus's (name, game) pairs, in order."""
    out = [("example1", gen_example1()[0])]
    for make in (gen_hamiltonian_game, gen_hamiltonian_complement_game):
        out += [(f"{make.__name__} {name}", make(graph))
                for name, graph in (("with", WITH_PATH), ("without", WITHOUT_PATH))]
    out += [(f"random {seed} 2", gen_random_game(seed, 2, 3, 2)) for seed in range(40)]
    out += [(f"random {seed} 3", gen_random_game(seed, 3, 3, 2)) for seed in range(20)]
    return out


def short(value) -> str:
    return "-" if value is None else hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def decision_line(game, q: ImprovementQuery) -> str:
    try:
        ans = decide_improvement(game, q)
    except SolverLimitError as exc:
        return f"refused: {exc}"
    key = None if ans.witness_rm is None else ans.witness_rm.canonical_key()
    return (f"{'yes' if ans.decision else 'no'} {ans.baseline_value} {ans.improved_value} "
            f"{short(key)} {short(ans.witness_lasso)}")


def game_slice(text: str) -> slice:
    try:
        picked = slice(*(int(part) if part else None for part in text.split(":")))
    except (TypeError, ValueError):
        picked = None
    if picked is None or picked.step == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not start:stop:step")
    return picked


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--games", type=game_slice, default=slice(None),
                        help="slice of the game list, as start:stop:step (default all)")
    args = parser.parse_args()
    for name, game in games()[args.games]:
        for method in ("certify", "paper"):
            for mode in ("strong", "weak"):
                for delta in DELTAS:
                    q = ImprovementQuery(budget=1, delta=delta, epsilon=Fraction(1, 8),
                                         mode=mode, method=method)
                    print(f"{name} {method} {mode} {delta}: {decision_line(game, q)}")


if __name__ == "__main__":
    main()

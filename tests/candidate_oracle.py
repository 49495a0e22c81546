"""Full-sweep candidate loop: the reference the floored sweep is tested against.

``full_candidates`` reads every signature of the exhaustive sweep, most
valuable first, one per (value, length) pair, and replays each with
``full_realize``, which walks without a designer floor.  The floored loop
in ``eqdesign.design._lasso_candidates`` must build the same machines in
the same order.

``unbounded_decision`` is the certify decision with no candidate skipped:
every candidate product is solved, by the exhaustive sweep and a search
bisecting every designer value, and the bounded loop of
``eqdesign.design.decide_improvement`` must give the same answer.
"""

from __future__ import annotations

from fractions import Fraction

import eqdesign.design as design
from eqdesign.auxiliary import AuxiliaryGame, build_auxiliary
from eqdesign.equilibria import NashLassoSolver, SolverMemo, _pack_sums
from eqdesign.games import Game, Lasso
from eqdesign.rewards import RewardMachine, implement

from sweep_oracle import bisect_search


def full_candidates(aux: AuxiliaryGame, solver: NashLassoSolver) -> list[RewardMachine]:
    machines: list[RewardMachine] = []
    seen_keys: set[tuple] = set()
    seen_sig: set[tuple] = set()
    for rec in reversed(solver.signatures()):
        _, _, length, sums, _ = rec
        sig_key = (Fraction(sums[-1], length), length)
        if sig_key in seen_sig:
            continue
        seen_sig.add(sig_key)
        # Looked up at call time, as the loop under test does.
        rm = design.strategy_to_rm(aux, design.replay_strategy(aux, full_realize(solver, rec)))
        key = rm.canonical_key()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        machines.append(rm)
        if len(machines) >= design.MAX_LASSO_CANDIDATES:
            break
    return machines


def full_realize(solver: NashLassoSolver, rec: tuple) -> Lasso:
    """The lasso of ``rec`` traced back through the unpruned walk."""
    ci, anchor, length, sums, _ = rec
    cei = solver._ceilings[ci]
    layers = [{anchor: {0}}, *solver._walk(cei, anchor, length)]
    packed = _pack_sums(sums, solver._width)
    assert packed in layers[length][anchor]
    states: list[int] = []
    moves: list[tuple[int, ...]] = []
    cur = anchor
    for k in range(length - 1, -1, -1):
        for s, xs in layers[k].items():
            prev = packed - solver._wpack[s]
            cls = next((c for c in cei.allowed[s] if c.succ == cur), None)
            if prev in xs and cls is not None:
                break
        states.append(s)
        moves.append(cls.joint)
        cur, packed = s, prev
    return solver._lasso(cei.tree, states[::-1], moves[::-1])


def unbounded_decision(game: Game, q: design.ImprovementQuery) -> design.ImprovementAnswer:
    """Certify's answer from solving every candidate in order."""
    maximize = q.mode == "weak"
    base = bisect_search(NashLassoSolver(game, None, q.bound), q.epsilon, maximize)
    aux = build_auxiliary(game, q.budget)
    candidates = []
    if aux.game.n_states <= design.AUX_CANDIDATE_STATE_LIMIT:
        candidates = full_candidates(aux, NashLassoSolver(aux.game, 0, q.bound))
    candidates += design._subsidy_candidates(game, q)
    best_seen = base.value
    memo = SolverMemo()
    for rm in candidates:
        solver = NashLassoSolver(implement(game, rm), None, q.bound, memo)
        val = bisect_search(solver, q.epsilon, maximize)
        best_seen = max(best_seen, val.value)
        if val.value - base.value > q.delta:
            lasso = owner = None
            if val.ne_exists:
                lasso = solver.witness(solver.extreme_signature(maximize)).lasso
                owner = solver.game
            return design.ImprovementAnswer(True, base.value, val.value, rm, lasso, owner,
                                            "certify", q.mode)
    return design.ImprovementAnswer(False, base.value, best_seen, None, None, None,
                                    "certify", q.mode)

"""Full-sweep candidate loop: the reference the floored sweep is tested against.

``full_candidates`` reads every signature of the exhaustive sweep, most
valuable first, one per (value, length) pair, and replays each with
``full_realize``, which walks without a designer floor.  The floored loop
in ``eqdesign.design._lasso_candidates`` must build the same machines in
the same order.

``unbounded_decision`` is the certify decision with no candidate skipped
and no early exit: the base game and every candidate product are solved
through the full ``signatures()`` list, their exact extremes read off its
ends and compared with ``baseline + delta``.  ``exact_extremes`` lists
those extremes, so a caller can ask several deltas of one game.
"""

from __future__ import annotations

from fractions import Fraction

import eqdesign.design as design
from eqdesign.auxiliary import AuxiliaryGame, build_auxiliary
from eqdesign.equilibria import NashLassoSolver, SolverMemo, _pack_sums
from eqdesign.games import Game, Lasso
from eqdesign.rewards import RewardMachine, implement


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


def exact_extreme(solver: NashLassoSolver, maximize: bool) -> tuple | None:
    """The least (or greatest) signature of the full sorted list, or None."""
    sigs = solver.signatures()
    return (sigs[-1] if maximize else sigs[0]) if sigs else None


def extreme_value(solver: NashLassoSolver, rec: tuple | None) -> Fraction:
    """The designer value of ``rec``; with none, the least global weight."""
    if rec is None:
        return Fraction(min(solver.game.global_weights))
    return Fraction(rec[3][-1], rec[2])


def exact_extremes(game: Game, q: design.ImprovementQuery) -> tuple[Fraction, list[tuple]]:
    """The certified exact baseline of ``game`` and, per candidate in the
    certify loop's order, ``(machine, product solver, extreme signature)``,
    the signature None when the product has no equilibrium."""
    maximize = q.mode == "weak"
    base_solver = NashLassoSolver(game, None, q.bound)
    rec = exact_extreme(base_solver, maximize)
    if rec is not None:
        base_solver.witness(rec)
    aux = build_auxiliary(game, q.budget)
    candidates = []
    if aux.game.n_states <= design.AUX_CANDIDATE_STATE_LIMIT:
        candidates = full_candidates(aux, NashLassoSolver(aux.game, 0, q.bound))
    candidates += design._subsidy_candidates(game, q)
    memo = SolverMemo()
    solved = []
    for rm in candidates:
        solver = NashLassoSolver(implement(game, rm), None, q.bound, memo)
        solved.append((rm, solver, exact_extreme(solver, maximize)))
    return extreme_value(base_solver, rec), solved


def unbounded_decision(game: Game, q: design.ImprovementQuery,
                       extremes: tuple[Fraction, list[tuple]] | None = None,
                       ) -> design.ImprovementAnswer:
    """Certify's answer from the exact extreme of every candidate, in order:
    the first whose extreme exceeds ``baseline + delta`` wins, witnessed by
    that extreme.  ``extremes`` is ``exact_extremes(game, q)``, computed
    when not given."""
    baseline, solved = extremes or exact_extremes(game, q)
    for rm, solver, rec in solved:
        value = extreme_value(solver, rec)
        if value - baseline > q.delta:
            lasso = owner = None
            if rec is not None:
                lasso, owner = solver.witness(rec).lasso, solver.game
            return design.ImprovementAnswer(True, baseline, value, rm, lasso, owner,
                                            "certify", q.mode)
    return design.ImprovementAnswer(False, baseline, baseline, None, None, None,
                                    "certify", q.mode)

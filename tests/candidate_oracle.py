"""Full-sweep candidate loop: the reference the floored sweep is tested against.

``full_candidates`` reads every signature of the exhaustive sweep, most
valuable first, one per (value, length) pair, and replays each with
``full_realize``, which walks without a designer floor, dropping the
replays that pay nothing.  The floored loop in
``eqdesign.design._lasso_candidates`` must build the same machines in the
same order.  ``replay_strategy`` is the paper's route to a replay: an
agent-0 strategy that ``strategy_to_rm`` turns into a machine with one
state per (memory, vector) pair; ``design.replay_machine`` must give the
same products from one state per lasso position.

``subsidy_schemes`` lists the unit subsidy schemes on one reachable
state, then on two, in certify's order.

``unbounded_decision`` is the certify decision with no cycle-mean bound
and no early exit: the base game and every candidate product, from the
machine paying nothing on, are solved through the full ``signatures()``
list, their exact extremes read off its ends and compared with
``baseline + delta``.  ``exact_extremes`` lists
those extremes, so a caller can ask several deltas of one game.
"""

from __future__ import annotations

from fractions import Fraction

import eqdesign.design as design
from eqdesign.auxiliary import AuxiliaryGame, build_auxiliary
from eqdesign.equilibria import NashLassoSolver, SolverMemo, _pack_sums
from eqdesign.games import Game, Lasso, MealyStrategy, tabulate
from eqdesign.rewards import RewardMachine, from_subsidy_scheme, implement, zero_rm


def replay_strategy(aux: AuxiliaryGame, lasso: Lasso) -> MealyStrategy:
    """Agent-0 strategy following a designer lasso, inert once it derails.

    Memory tracks the position along the lasso; while the observed states
    match, the recorded agent-0 actions are replayed, and the first
    mismatch drops to an absorbing mode paying nothing forever.
    """
    states_at = list(lasso.prefix_states) + list(lasso.cycle_states)
    moves_at = list(lasso.prefix_moves) + list(lasso.cycle_moves)
    n_pre = len(lasso.prefix_states)
    length = len(states_at)
    absorb = length
    zero_action = aux.vector_action[0]  # vectors[0] is zero

    def cell(m: int, x: int) -> tuple[int, int]:
        if m < length and x == states_at[m]:
            return (m + 1 if m + 1 < length else n_pre), moves_at[m][0]
        return absorb, zero_action

    return MealyStrategy(length + 1, 0, *tabulate(length + 1, aux.game.n_states, cell))


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
        rm = design.replay_machine(aux, full_realize(solver, rec))
        key = rm.canonical_key()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        machines.append(rm)
        if len(machines) >= design.MAX_LASSO_CANDIDATES:
            break
    return [rm for rm in machines if rm.max_norm() > 0]


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


def subsidy_schemes(game: Game, budget: int) -> list[RewardMachine]:
    if budget < 1:
        return []
    n = game.n_players
    entries = [(s, tuple(int(j == i) for j in range(n)))
               for s in game.arena.reachable_states() for i in range(n)]
    schemes = [{s: vec} for s, vec in entries]
    for k, (s1, v1) in enumerate(entries):
        schemes += [{s1: v1, s2: v2} for s2, v2 in entries[k + 1:] if s2 != s1]
    return [from_subsidy_scheme(game, kappa) for kappa in schemes]


def exact_extreme(solver: NashLassoSolver, maximize: bool) -> tuple | None:
    """The least (or greatest) signature of the full sorted list, or None."""
    sigs = solver.signatures()
    return (sigs[-1] if maximize else sigs[0]) if sigs else None


def extreme_value(solver: NashLassoSolver, rec: tuple | None) -> Fraction:
    """The designer value of ``rec``; with none, the least global weight
    over the states play can visit."""
    if rec is None:
        game = solver.game
        return Fraction(min(game.global_weights[s] for s in game.arena.reachable_states()))
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
    candidates = [zero_rm(game)]
    if q.budget > 0:
        aux = build_auxiliary(game, q.budget)
        if aux.game.n_states <= design.AUX_CANDIDATE_STATE_LIMIT:
            candidates += full_candidates(aux, NashLassoSolver(aux.game, 0, q.bound))
    candidates += subsidy_schemes(game, q.budget)
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

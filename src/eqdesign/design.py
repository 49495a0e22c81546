"""Approximation of extreme equilibrium values and reward-machine design.

The extreme designer values over equilibria are approximated by binary
search: each probe asks the threshold solver whether some equilibrium has
its designer payoff inside one half of the current bracket.  The worst
value is approached from above, the best from below, each within the
requested tolerance.  Games with no equilibrium at all fall back to the
least global weight, matching the convention the rest of the toolkit uses.

The improvement decision comes in two flavours.  ``paper`` compares the
approximated designer-fixed extreme of the auxiliary game against the base
game verbatim.  ``certify`` (the default for strong mode, and sound for a
"yes" in both modes) tests concrete budget-respecting machines: grim
replays of the most valuable designer lassos of the auxiliary game, plus
small-support subsidy schemes, each re-verified on its product before it
may witness the answer.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .auxiliary import AuxiliaryGame, build_auxiliary, strategy_to_rm
from .equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    NEWitness,
    ThresholdQuery,
)
from .games import Game, Lasso, MealyStrategy
from .rewards import RewardMachine, from_subsidy_scheme, implement
from .zerosum import PunishmentResult, SolverLimitError, punishment_values


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one binary-search run."""

    value: Fraction
    iterations: int
    ne_exists: bool


@dataclass(frozen=True)
class ImprovementQuery:
    """Parameters of an improvement decision."""

    budget: int
    delta: Fraction
    epsilon: Fraction
    mode: str = "strong"  # "strong" or "weak"
    method: str = "certify"  # "certify" or "paper"
    bound: int = 12
    max_lasso_candidates: int = 12
    max_subsidy_support: int = 2
    aux_candidate_state_limit: int = 40

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.budget < 0:
            raise ValueError("budget must be a natural number")
        if self.mode not in ("strong", "weak"):
            raise ValueError("mode must be 'strong' or 'weak'")
        if self.method not in ("certify", "paper"):
            raise ValueError("method must be 'certify' or 'paper'")


@dataclass(frozen=True)
class ImprovementAnswer:
    decision: bool
    baseline_value: Fraction
    improved_value: Fraction
    witness_rm: RewardMachine | None
    witness_lasso: Lasso | None
    method: str
    mode: str


def _global_query(game: Game, fixed: int | None, lo, hi) -> ThresholdQuery:
    n = game.n_players
    return ThresholdQuery(
        lower=(NEG_INF,) * n, upper=(POS_INF,) * n,
        global_lower=lo, global_upper=hi, fixed_player=fixed,
    )


def _search(game: Game, epsilon: Fraction, fixed: int | None, maximize: bool,
            backend: str, bound: int,
            solver: NashLassoSolver | None = None,
            pun: dict[int, PunishmentResult] | None = None) -> SearchResult:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if solver is None:
        solver = NashLassoSolver(game, fixed, bound, pun=pun)

    if backend == "oracle":
        values = solver.global_values()
        exists = bool(values)

        def probe(lo: Fraction, hi: Fraction) -> bool:
            k = bisect.bisect_left(values, lo)
            return k < len(values) and values[k] <= hi
    elif backend == "lp":
        exists = solver.lp_feasible(_global_query(game, fixed, NEG_INF, POS_INF))

        def probe(lo: Fraction, hi: Fraction) -> bool:
            return solver.lp_feasible(_global_query(game, fixed, lo, hi))
    else:
        raise ValueError(f"unknown backend {backend!r}")

    min_w = Fraction(min(game.global_weights))
    max_w = Fraction(max(game.global_weights))
    if not exists:
        return SearchResult(min_w, 0, False)

    a1, a2 = min_w, max_w
    iterations = 0
    while a2 - a1 >= epsilon:
        iterations += 1
        mid = (a1 + a2) / 2
        if maximize:
            if probe(mid, a2):
                a1 = mid
            else:
                a2 = mid
        else:
            if probe(a1, mid):
                a2 = mid
            else:
                a1 = mid
    return SearchResult(a1 if maximize else a2, iterations, True)


def epsilon_worst_ne(game: Game, epsilon: Fraction, fixed0: bool = False,
                     backend: str = "oracle", bound: int = 12) -> Fraction:
    """Least-equilibrium designer value, approached within epsilon from above.

    With ``fixed0`` the search reads the designer-fixed equilibria of an
    auxiliary game (whose global table is agent 0's weight).  Empty
    equilibrium sets collapse to the least global weight.
    """
    fixed = 0 if fixed0 else None
    return _search(game, Fraction(epsilon), fixed, False, backend, bound).value


def epsilon_best_ne(game: Game, epsilon: Fraction, fixed0: bool = False,
                    backend: str = "oracle", bound: int = 12) -> Fraction:
    """Best-equilibrium designer value, approached within epsilon from below."""
    fixed = 0 if fixed0 else None
    return _search(game, Fraction(epsilon), fixed, True, backend, bound).value


def algorithm_trace(game: Game, epsilon: Fraction, fixed0: bool = False,
                    maximize: bool = False, backend: str = "oracle",
                    bound: int = 12) -> SearchResult:
    """Binary-search run with its iteration count, for contract checks."""
    fixed = 0 if fixed0 else None
    return _search(game, Fraction(epsilon), fixed, maximize, backend, bound)


def exact_worst_ne(game: Game, fixed: int | None = None,
                   bound: int = 12) -> NEWitness | None:
    """Exact least designer value over equilibrium lassos within the bound."""
    solver = NashLassoSolver(game, fixed, bound)
    rec = solver.extreme_signature(maximize=False)
    return solver.witness(rec) if rec is not None else None


def exact_best_ne(game: Game, fixed: int | None = None,
                  bound: int = 12) -> NEWitness | None:
    solver = NashLassoSolver(game, fixed, bound)
    rec = solver.extreme_signature(maximize=True)
    return solver.witness(rec) if rec is not None else None


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
    n_memory = length + 1
    zero_action = aux.vector_action[
        aux.vector_index((0,) * aux.source.n_players)
    ]

    step_rows = []
    act_rows = []
    for m in range(n_memory):
        step_row = []
        act_row = []
        for x in range(aux.game.n_states):
            if m < length and x == states_at[m]:
                nxt = m + 1 if m + 1 < length else n_pre
                step_row.append(nxt)
                act_row.append(moves_at[m][0])
            else:
                step_row.append(absorb)
                act_row.append(zero_action)
        step_rows.append(tuple(step_row))
        act_rows.append(tuple(act_row))
    strat = MealyStrategy(n_memory, 0, tuple(step_rows), tuple(act_rows))
    strat.validate(aux.game, 0)
    return strat


def _lasso_candidates(aux: AuxiliaryGame, q: ImprovementQuery,
                      maximize_first: bool, solved: dict) -> list[RewardMachine]:
    """Machines distilled from the most valuable designer lassos.

    Skipped when the auxiliary game is too large for the bounded sweep;
    subsidy candidates remain available in that case.
    """
    if aux.game.n_states > q.aux_candidate_state_limit:
        return []
    solver = NashLassoSolver(aux.game, fixed=0, bound=q.bound,
                             pun=_punishments_in(solved, aux.game, 0))
    sigs = solver.signatures()
    if maximize_first:
        sigs = list(reversed(sigs))
    machines: list[RewardMachine] = []
    seen_keys: set[tuple] = set()
    seen_sig: set[tuple] = set()
    for rec in sigs:
        _, _, length, sums, _ = rec
        sig_key = (Fraction(sums[-1], length), length)
        if sig_key in seen_sig:
            continue
        seen_sig.add(sig_key)
        lasso = solver.realize(rec)
        rm = strategy_to_rm(aux, replay_strategy(aux, lasso))
        key = rm.canonical_key()
        if key in seen_keys:
            continue
        seen_keys.add(key)
        machines.append(rm)
        if len(machines) >= q.max_lasso_candidates:
            break
    return machines


def _subsidy_candidates(game: Game, q: ImprovementQuery) -> list[RewardMachine]:
    """Unit-entry subsidy schemes with support of at most a few states."""
    if q.budget < 1 or q.max_subsidy_support < 1:
        return []
    n = game.n_players
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    singles = [
        (s, vec) for s in range(game.n_states) for vec in units
    ]
    machines = []
    for s, vec in singles:
        machines.append(from_subsidy_scheme(game, {s: vec}))
    if q.max_subsidy_support >= 2:
        for (s1, v1), (s2, v2) in itertools.combinations(singles, 2):
            if s1 == s2:
                continue
            machines.append(from_subsidy_scheme(game, {s1: v1, s2: v2}))
    return machines


def _punishments_in(solved: dict, game: Game,
                    fixed: int | None) -> dict[int, PunishmentResult]:
    """Punishments of every player but ``fixed``, solved at most once each.

    ``solved`` maps an arena (protocols and transitions) to the results
    already computed on it, by (player, weight row): the values and the
    witness depend on nothing else.  Most certify candidates are subsidy
    schemes, whose products keep the base arena and change one player's
    weights, so most solves of a decision are found here.
    """
    arena = solved.setdefault((game.protocol, frozenset(game.transitions.items())), {})
    pun = {}
    for i in range(game.n_players):
        if i != fixed:
            key = (i, game.weights[i])
            if key not in arena:
                arena[key] = punishment_values(game, i)
            pun[i] = arena[key]
    return pun


def decide_improvement(game: Game, q: ImprovementQuery) -> ImprovementAnswer:
    """Can some budget-respecting machine raise the extreme value past delta?

    ``paper`` mode runs the three-step auxiliary-game comparison verbatim
    (quantifying over every designer strategy, frugal or not).  ``certify``
    mode only answers yes with a machine whose product has been re-solved
    and beats the threshold, so its positive answers are self-certifying;
    its candidate family is finite and documented, so a negative answer
    means no candidate improved, not that none exists.  Punishment solves
    are shared within one call and never across calls.
    """
    solved: dict = {}
    maximize = q.mode == "weak"
    base = _search(game, q.epsilon, None, maximize, "oracle", q.bound,
                   pun=_punishments_in(solved, game, None))
    aux = build_auxiliary(game, q.budget)

    if q.method == "paper":
        aux_pun = _punishments_in(solved, aux.game, 0)
        aux_search = _search(aux.game, q.epsilon, 0, maximize, "oracle", q.bound,
                             pun=aux_pun)
        decision = aux_search.value - base.value > q.delta
        rm = None
        lasso = None
        if decision and aux_search.ne_exists:
            solver = NashLassoSolver(aux.game, fixed=0, bound=q.bound, pun=aux_pun)
            rec = solver.extreme_signature(maximize=maximize)
            if rec is not None:
                lasso = solver.realize(rec)
                rm = strategy_to_rm(aux, replay_strategy(aux, lasso))
        return ImprovementAnswer(
            decision, base.value, aux_search.value, rm, lasso, "paper", q.mode
        )

    best_seen = base.value
    candidates = _lasso_candidates(aux, q, maximize_first=True, solved=solved)
    candidates += _subsidy_candidates(game, q)
    seen: set[tuple] = set()
    for rm in candidates:
        key = rm.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        product = implement(game, rm)
        pun = _punishments_in(solved, product, None)
        val = _search(product, q.epsilon, None, maximize, "oracle", q.bound, pun=pun)
        if val.value > best_seen:
            best_seen = val.value
        if val.value - base.value > q.delta:
            solver = NashLassoSolver(product, None, q.bound, pun=pun)
            rec = solver.extreme_signature(maximize=maximize)
            lasso = solver.realize(rec) if rec is not None else None
            return ImprovementAnswer(
                True, base.value, val.value, rm, lasso, "certify", q.mode
            )
    return ImprovementAnswer(
        False, base.value, best_seen, None, None, "certify", q.mode
    )


def synthesize_rm(game: Game, q: ImprovementQuery) -> RewardMachine:
    """Witness machine of a positive improvement decision.

    Raises :class:`SolverLimitError` when the decision is negative or the
    chosen method produced no concrete machine.
    """
    answer = decide_improvement(game, q)
    if not answer.decision or answer.witness_rm is None:
        raise SolverLimitError("no witness reward machine for this query")
    return answer.witness_rm

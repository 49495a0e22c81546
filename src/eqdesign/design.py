"""Approximation of extreme equilibrium values and reward-machine design.

The extreme designer values over equilibria are approximated by binary
search: each probe asks whether some equilibrium has its designer payoff
inside one half of the current bracket.  The worst value is approached from
above, the best from below, each within the requested tolerance; the
bounded oracle answers every probe from the one extreme signature.  Games
with no equilibrium at all fall back to the least global weight, matching
the convention the rest of the toolkit uses.

The improvement decision comes in two flavours.  ``paper`` compares the
approximated designer-fixed extreme of the auxiliary game against the base
game verbatim.  ``certify`` (the default for strong mode, and sound for a
"yes" in both modes) tests concrete budget-respecting machines: grim
replays of the most valuable designer lassos of the auxiliary game, plus
small-support subsidy schemes, each re-verified on its product before it
may witness the answer.  A candidate whose product's largest reachable
cycle mean shows that its search could not change the answer is skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .auxiliary import AuxiliaryGame, build_auxiliary, strategy_to_rm
from .equilibria import (
    BACKENDS,
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    NEWitness,
    SolverMemo,
    ThresholdQuery,
)
from .games import Arena, Game, Lasso, MealyStrategy, tabulate
from .rewards import RewardMachine, from_subsidy_scheme, implement
from .zerosum import SolverLimitError, max_mean_value_function

# Certify's candidate family: grim replays of the MAX_LASSO_CANDIDATES most
# valuable designer lassos of an auxiliary game with at most
# AUX_CANDIDATE_STATE_LIMIT states, then every unit subsidy scheme on one or
# two states.
MAX_LASSO_CANDIDATES = 12
AUX_CANDIDATE_STATE_LIMIT = 40


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one binary-search run."""

    value: Fraction
    iterations: int
    ne_exists: bool


def _exact(**values: object) -> None:
    for name, value in values.items():
        # bool is an int subclass; it and floats are refused, not converted.
        if type(value) not in (int, Fraction):
            raise ValueError(f"{name} {value!r} is not an int or a Fraction")


@dataclass(frozen=True)
class ImprovementQuery:
    """Parameters of an improvement decision."""

    budget: int
    delta: Fraction
    epsilon: Fraction
    mode: str = "strong"  # "strong" or "weak"
    method: str = "certify"  # "certify" or "paper"
    bound: int = 12

    def __post_init__(self) -> None:
        _exact(delta=self.delta, epsilon=self.epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if type(self.budget) is not int or self.budget < 0:
            raise ValueError(f"budget {self.budget!r} is not a natural number")
        if type(self.bound) is not int or self.bound < 1:
            raise ValueError(f"lasso length bound {self.bound!r} is not a positive int")
        if self.mode not in ("strong", "weak"):
            raise ValueError("mode must be 'strong' or 'weak'")
        if self.method not in ("certify", "paper"):
            raise ValueError("method must be 'certify' or 'paper'")


@dataclass(frozen=True)
class ImprovementAnswer:
    """``witness_lasso`` is a certified play of ``witness_game``: the product
    ``implement(game, witness_rm)`` in certify mode, the auxiliary game
    ``build_auxiliary(game, budget).game`` in paper mode.

    ``improved_value`` is the compared search value: the winner's for a
    "yes", the auxiliary game's in paper mode, and for a certify "no" the
    largest of the baseline and the solved candidates' search values, which
    no skipped candidate's search value exceeds."""

    decision: bool
    baseline_value: Fraction
    improved_value: Fraction
    witness_rm: RewardMachine | None
    witness_lasso: Lasso | None
    witness_game: Game | None
    method: str
    mode: str


def _search(solver: NashLassoSolver, epsilon: Fraction, maximize: bool,
            backend: str) -> tuple[SearchResult, tuple | None]:
    """Binary search for the solver's extreme designer value; ``epsilon`` > 0,
    ``backend`` one of ``BACKENDS``.  Also returns the extreme signature the
    oracle read, from which a witness is realized without a second sweep;
    None for the LP backend and when there is no equilibrium."""
    game = solver.game

    def global_query(lo, hi) -> ThresholdQuery:
        n = game.n_players
        return ThresholdQuery(
            lower=(NEG_INF,) * n, upper=(POS_INF,) * n,
            global_lower=lo, global_upper=hi, fixed_player=solver.fixed,
        )

    if backend == "oracle":
        rec = solver.extreme_signature(maximize)
        if rec is not None:
            return SearchResult(*_bracket(game, epsilon, maximize,
                                          Fraction(rec[3][-1], rec[2])), True), rec
    elif solver.lp_feasible(global_query(NEG_INF, POS_INF)):
        return SearchResult(*_bisect(game, epsilon, maximize,
                                     lambda lo, hi: solver.lp_feasible(global_query(lo, hi))),
                            True), None
    return SearchResult(Fraction(min(game.global_weights)), 0, False), None


def _bracket(game: Game, epsilon: Fraction, maximize: bool,
             extreme: Fraction) -> tuple[Fraction, int]:
    """The oracle search's value and iteration count on ``game`` when its
    extreme designer value is ``extreme``.  The value rises with
    ``extreme`` and is never below the least global weight."""
    # The worst value stays at or above the bracket's lower edge, the best at
    # or below its upper edge, so a window holds a value exactly when its
    # other edge admits the extreme.
    return _bisect(game, epsilon, maximize,
                   lambda lo, hi: extreme >= lo if maximize else extreme <= hi)


def _bisect(game: Game, epsilon: Fraction, maximize: bool,
            probe: Callable[[Fraction, Fraction], bool]) -> tuple[Fraction, int]:
    """Halve ``game``'s global weight range until it is narrower than
    ``epsilon``, keeping the half whose window ``probe`` admits."""
    a1, a2 = Fraction(min(game.global_weights)), Fraction(max(game.global_weights))
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
    return (a1 if maximize else a2), iterations


def algorithm_trace(game: Game, epsilon: Fraction, fixed0: bool = False,
                    maximize: bool = False, backend: str = "oracle",
                    bound: int = 12) -> SearchResult:
    """Binary-search run with its iteration count, for contract checks."""
    _exact(epsilon=epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    solver = NashLassoSolver(game, 0 if fixed0 else None, bound)
    return _search(solver, epsilon, maximize, backend)[0]


def epsilon_worst_ne(game: Game, epsilon: Fraction, fixed0: bool = False,
                     backend: str = "oracle", bound: int = 12) -> Fraction:
    """Least-equilibrium designer value, approached within epsilon from above.

    With ``fixed0`` the search reads the designer-fixed equilibria of an
    auxiliary game (whose global table is agent 0's weight).  Empty
    equilibrium sets collapse to the least global weight.
    """
    return algorithm_trace(game, epsilon, fixed0, False, backend, bound).value


def epsilon_best_ne(game: Game, epsilon: Fraction, fixed0: bool = False,
                    backend: str = "oracle", bound: int = 12) -> Fraction:
    """Best-equilibrium designer value, approached within epsilon from below."""
    return algorithm_trace(game, epsilon, fixed0, True, backend, bound).value


def _extreme_witness(solver: NashLassoSolver, maximize: bool) -> NEWitness | None:
    """Certified witness of the solver's least (or greatest) designer value."""
    rec = solver.extreme_signature(maximize)
    return solver.witness(rec) if rec is not None else None


def exact_worst_ne(game: Game, fixed: int | None = None,
                   bound: int = 12) -> NEWitness | None:
    """Exact least designer value over equilibrium lassos within the bound."""
    return _extreme_witness(NashLassoSolver(game, fixed, bound), False)


def exact_best_ne(game: Game, fixed: int | None = None,
                  bound: int = 12) -> NEWitness | None:
    return _extreme_witness(NashLassoSolver(game, fixed, bound), True)


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


def _lasso_candidates(aux: AuxiliaryGame,
                      solver: NashLassoSolver) -> list[RewardMachine]:
    """Machines replaying the most valuable designer lassos of ``solver``.

    One sweep lists the signatures worth at least the
    ``MAX_LASSO_CANDIDATES``-th most valuable (value, length) pair, and
    prunes the walks that cannot reach it: the top of the full sorted list,
    in the same order.  Read most valuable first, the first signature of
    each pair is replayed, up to ``MAX_LASSO_CANDIDATES`` machines.

    No two pairs give one machine, so no machine is dropped as a repeat.
    A replay machine has one memory block per lasso position, and at each
    position exactly one (source state, vector), the lasso's auxiliary
    state there, advances to the next block.  The machine thus fixes the
    lasso's auxiliary states and where its cycle starts, and with them the
    cycle's length and designer sum.
    """
    pairs: dict[tuple[int, int], tuple] = {}
    for rec in reversed(solver.signatures(top=MAX_LASSO_CANDIDATES)):
        # (designer sum, length) names the same pair as (value, length).
        pairs.setdefault((rec[3][-1], rec[2]), rec)
    return [strategy_to_rm(aux, replay_strategy(aux, solver.realize(rec)))
            for rec in itertools.islice(pairs.values(), MAX_LASSO_CANDIDATES)]


def _subsidy_candidates(game: Game, q: ImprovementQuery) -> Iterator[RewardMachine]:
    """Unit-entry subsidy schemes on one state, then on two distinct states,
    each built when it is read."""
    if q.budget < 1:
        return
    n = game.n_players
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    singles = [
        (s, vec) for s in range(game.n_states) for vec in units
    ]
    for s, vec in singles:
        yield from_subsidy_scheme(game, {s: vec})
    for (s1, v1), (s2, v2) in itertools.combinations(singles, 2):
        if s1 != s2:
            yield from_subsidy_scheme(game, {s1: v1, s2: v2})


def decide_improvement(game: Game, q: ImprovementQuery) -> ImprovementAnswer:
    """Can some budget-respecting machine raise the extreme value past delta?

    ``paper`` mode runs the three-step auxiliary-game comparison verbatim
    (quantifying over every designer strategy, frugal or not).  ``certify``
    mode only answers yes with a machine whose product has been re-solved
    and beats the threshold.  In both modes the witness lasso passes the
    exact best-response certificate on its game (else
    :class:`SolverLimitError` is raised), so certify's positive answers
    are self-certifying; its candidate family is finite
    and documented, so a negative answer means no candidate improved, not
    that none exists.  Each game searched (base, auxiliary, each candidate
    product) gets one solver, and the witness lasso is realized from the
    extreme signature the winner's search read, with no second sweep.  The
    replay machines are built before the loop, each subsidy scheme only
    when the loop reaches it.  A candidate is skipped, with no solver and no arena
    tables, when the search value its product's largest reachable cycle
    mean would give, which bounds the search's, neither beats the best
    value seen nor clears the threshold: the answer is that of solving it.
    What an arena derives (deviation moves,
    response classes, products) it keeps for its lifetime, across calls: all
    subsidy-scheme products of ``game`` share one arena.  Within one call,
    and never across, the candidate products' solvers also share one
    :class:`SolverMemo`: most candidates are subsidy schemes, which raise
    one player's weights at one or two states, so most punishment solves
    and most structures of a call are found there.  The base and auxiliary
    games' solvers each build a memo of their own, since no other game of
    the call has their arena; the auxiliary game is dropped before the
    products are solved, and the products' memo when the call ends.
    """
    maximize = q.mode == "weak"
    base, _ = _search(NashLassoSolver(game, None, q.bound), q.epsilon, maximize, "oracle")
    aux = build_auxiliary(game, q.budget)

    if q.method == "paper":
        aux_solver = NashLassoSolver(aux.game, 0, q.bound)
        aux_search, rec = _search(aux_solver, q.epsilon, maximize, "oracle")
        decision = aux_search.value - base.value > q.delta
        rm = lasso = owner = None
        if decision and rec is not None:
            lasso = aux_solver.witness(rec).lasso
            rm = strategy_to_rm(aux, replay_strategy(aux, lasso))
            owner = aux.game
        return ImprovementAnswer(decision, base.value, aux_search.value, rm, lasso,
                                 owner, "paper", q.mode)

    best_seen = base.value
    replays = []
    # Larger auxiliary games are left to the subsidy schemes.
    if aux.game.n_states <= AUX_CANDIDATE_STATE_LIMIT:
        replays = _lasso_candidates(aux, NashLassoSolver(aux.game, 0, q.bound))
    # Not read again: freed before the products' memo grows.
    del aux
    memo = SolverMemo()
    # Per (arena, global row), the bracket of the largest reachable cycle mean:
    # every equilibrium value is a reachable cycle's mean, so no search on such
    # a product returns more.  Successor lists are kept by arena.
    most: dict[tuple, Fraction] = {}
    succs: dict[Arena, list[list[int]]] = {}
    # Replay machines have two or more states and subsidy schemes one, and
    # each family is free of repeats, so no candidate is solved twice.
    for rm in itertools.chain(replays, _subsidy_candidates(game, q)):
        product = implement(game, rm)
        arena, row = product.arena, product.global_weights
        if (arena, row) not in most:
            if arena not in succs:
                succs[arena] = [list({t for _, t in arena.moves(s)})
                                for s in range(arena.n_states)]
            ub = max_mean_value_function(succs[arena], row)[arena.initial]
            most[arena, row] = _bracket(product, q.epsilon, maximize, ub)[0]
        # Such a candidate can neither raise the best value seen nor win.
        if most[arena, row] <= best_seen and most[arena, row] - base.value <= q.delta:
            continue
        solver = NashLassoSolver(product, None, q.bound, memo)
        val, rec = _search(solver, q.epsilon, maximize, "oracle")
        if val.value > best_seen:
            best_seen = val.value
        if val.value - base.value > q.delta:
            lasso = owner = None
            if rec is not None:
                lasso = solver.witness(rec).lasso
                owner = solver.game
            return ImprovementAnswer(True, base.value, val.value, rm, lasso,
                                     owner, "certify", q.mode)
        # Freed before the next product is built, which then reuses its
        # memory: kept alive, the criterion-5 decisions ran ~2% slower.
        del solver
    return ImprovementAnswer(False, base.value, best_seen, None, None, None,
                             "certify", q.mode)


def synthesize_rm(game: Game, q: ImprovementQuery) -> RewardMachine:
    """Witness machine of a positive improvement decision.

    Raises :class:`SolverLimitError` when the decision is negative or the
    chosen method produced no concrete machine.
    """
    answer = decide_improvement(game, q)
    if not answer.decision or answer.witness_rm is None:
        raise SolverLimitError("no witness reward machine for this query")
    return answer.witness_rm

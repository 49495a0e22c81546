"""Approximation of extreme equilibrium values and reward-machine design.

The extreme designer values over equilibria are approximated by binary
search: each probe asks whether some equilibrium has its designer payoff
inside one half of the current bracket.  The worst value is approached from
above, the best from below, each within the requested tolerance; the
bounded oracle answers every probe from the one extreme signature.  Games
with no equilibrium at all fall back to the least global weight over the
states play can visit, matching the convention the rest of the toolkit
uses.

The improvement decision comes in two flavours.  ``paper`` compares the
approximated designer-fixed extreme of the auxiliary game against the base
game verbatim.  ``certify`` (the default, and sound for a "yes" in both
modes) solves once the product of the machine paying nothing, the base
game on its reachable states: its exact, certified extreme is the
baseline ``b``, and it answers every ``delta < 0``.  When its largest
reachable cycle mean is at most ``b + delta``, no machine can win.
Otherwise certify asks exact threshold questions of machines that pay
within the budget: replays of the auxiliary game's most valuable designer
lassos (one machine state per lasso position), then unit subsidy schemes
on one or two reachable states.  Each sweep stops at the first signature
that decides whether its extreme clears ``b + delta``, and a winner is
certified on its product before it may witness the answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .auxiliary import AuxiliaryGame, build_auxiliary
from .equilibria import (
    BACKENDS,
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    NEWitness,
    SolverMemo,
    ThresholdQuery,
)
from .games import Game, Lasso, tabulate
from .rewards import RewardMachine, from_subsidy_scheme, implement, zero_rm
from .zerosum import SolverLimitError, max_mean_value_function

# Certify's replays (_candidates): the MAX_LASSO_CANDIDATES most valuable
# designer lassos of an auxiliary game of at most AUX_CANDIDATE_STATE_LIMIT states.
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
    """Parameters of an improvement decision.

    ``epsilon`` is the tolerance of ``paper`` mode's binary searches;
    ``certify`` mode compares exact values and does not read it.
    """

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

    In certify mode both values are exact.  ``baseline_value`` is the base
    game's certified extreme; ``improved_value`` is, for a "yes", the
    value of the certified witness (the winner's worst equilibrium in
    strong mode, the first signature found above ``baseline + delta`` in
    weak mode), and for a "no" the baseline itself, since nothing above it
    was established.  In paper mode both are ``epsilon`` search values, of
    the base game and of the auxiliary game."""

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
            extreme = Fraction(rec[3][-1], rec[2])
            # The worst value stays at or above the bracket's lower edge, the
            # best at or below its upper edge, so a window holds a value
            # exactly when its other edge admits the extreme.
            return SearchResult(*_bisect(
                game, epsilon, maximize,
                lambda lo, hi: extreme >= lo if maximize else extreme <= hi), True), rec
    elif solver.lp_feasible(global_query(NEG_INF, POS_INF)):
        return SearchResult(*_bisect(game, epsilon, maximize,
                                     lambda lo, hi: solver.lp_feasible(global_query(lo, hi))),
                            True), None
    return SearchResult(_value(game, None), 0, False), None


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
    equilibrium sets collapse to the least global weight play can visit.
    """
    return algorithm_trace(game, epsilon, fixed0, False, backend, bound).value


def epsilon_best_ne(game: Game, epsilon: Fraction, fixed0: bool = False,
                    backend: str = "oracle", bound: int = 12) -> Fraction:
    """Best-equilibrium designer value, approached within epsilon from below."""
    return algorithm_trace(game, epsilon, fixed0, True, backend, bound).value


def _value(game: Game, witness: NEWitness | None) -> Fraction:
    """The designer value of ``witness``, or with none the least global
    weight over the states of ``game`` that play can visit: the toolkit's
    value of an empty equilibrium set."""
    if witness is None:
        return Fraction(min(game.global_weights[s] for s in game.arena.reachable_states()))
    return witness.global_payoff


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


def replay_machine(aux: AuxiliaryGame, lasso: Lasso) -> RewardMachine:
    """Machine replaying a designer lasso, inert once the play derails.

    State ``m`` is lasso position ``m``: reading the source state of the
    lasso's ``m``-th auxiliary state, it pays the vector agent 0 played
    there and moves on, from the last position back to the cycle start.
    Any other state drops to an absorbing last state paying nothing.
    """
    sources = [aux.pair_of_state[x][0] for x in (*lasso.prefix_states, *lasso.cycle_states)]
    paid = [aux.vectors[joint[0] - aux.vector_action[0]]  # actions in vector order
            for joint in (*lasso.prefix_moves, *lasso.cycle_moves)]
    length = len(sources)

    def cell(m: int, s: int) -> tuple[int, tuple[int, ...]]:
        if m < length and s == sources[m]:
            return (m + 1 if m + 1 < length else len(lasso.prefix_states)), paid[m]
        return length, aux.vectors[0]  # vectors[0] is zero

    return RewardMachine(tuple(f"q{m}" for m in range(length + 1)), 0,
                         *tabulate(length + 1, aux.source.n_states, cell))


def _lasso_candidates(aux: AuxiliaryGame,
                      solver: NashLassoSolver) -> list[RewardMachine]:
    """Machines replaying the most valuable designer lassos of ``solver``.

    One sweep lists the signatures worth at least the
    ``MAX_LASSO_CANDIDATES``-th most valuable (value, length) pair, and
    prunes the walks that cannot reach it: the top of the full sorted list,
    in the same order.  Read most valuable first, the first signature of
    each pair is replayed, up to ``MAX_LASSO_CANDIDATES`` machines, and the
    replays that pay nothing are dropped: such a machine gives the base
    game again, whose extreme is the baseline.

    No two pairs give one machine, so no machine is dropped as a repeat.
    A replay machine has one state per lasso position, and at each position
    exactly one source state advances, paying the vector agent 0 played
    there.  The machine thus fixes the lasso's source states and vectors,
    so its auxiliary states (each records the vector paid on the way in),
    and where its cycle starts, and with them the cycle's length and
    designer sum.
    """
    pairs: dict[tuple[int, int], tuple] = {}
    for rec in reversed(solver.signatures(top=MAX_LASSO_CANDIDATES)):
        # (designer sum, length) names the same pair as (value, length).
        pairs.setdefault((rec[3][-1], rec[2]), rec)
    replays = [replay_machine(aux, solver.realize(rec))
               for rec in itertools.islice(pairs.values(), MAX_LASSO_CANDIDATES)]
    return [rm for rm in replays if rm.max_norm() > 0]


def _candidates(game: Game, q: ImprovementQuery) -> Iterator[RewardMachine]:
    """Certify's paying candidate machines, in order, each built when read.

    At a positive budget and when the auxiliary game (one state per
    reachable state and reward vector) has at most
    ``AUX_CANDIDATE_STATE_LIMIT`` states, first the paying replays of
    :func:`_lasso_candidates`: that game is built when the family is first
    read, and freed before any replay is tried.  Then unit subsidy schemes
    on one reachable state, then on two.

    No two candidates are one machine: replays are distinct machines of two
    or more states (:func:`_lasso_candidates`), the others have one.  Nor do
    two one-state candidates give one product: they share the arena over
    the reachable states, and their rows differ where they pay.  A scheme
    paying at an unreachable state would repeat the baseline's product, or
    that of the earlier scheme on its other state, so none is listed.
    """
    if q.budget < 1:
        return
    reachable = game.arena.reachable_states()
    n = game.n_players
    if len(reachable) * math.comb(q.budget + n, n) <= AUX_CANDIDATE_STATE_LIMIT:
        aux = build_auxiliary(game, q.budget)
        replays = _lasso_candidates(aux, NashLassoSolver(aux.game, 0, q.bound))
        del aux  # freed before the products' memo grows
        yield from replays
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    singles = [(s, vec) for s in reachable for vec in units]
    for s, vec in singles:
        yield from_subsidy_scheme(game, {s: vec})
    for (s1, v1), (s2, v2) in itertools.combinations(singles, 2):
        if s1 != s2:
            yield from_subsidy_scheme(game, {s1: v1, s2: v2})


def decide_improvement(game: Game, q: ImprovementQuery) -> ImprovementAnswer:
    """Can some budget-respecting machine raise the extreme value past delta?

    ``paper`` mode runs the three-step auxiliary-game comparison verbatim
    (quantifying over every designer strategy, frugal or not), between two
    ``epsilon`` binary searches.  ``certify`` mode asks exact threshold
    questions, and ``epsilon`` plays no part in it.  Its baseline ``b`` is
    the exact, certified extreme (the worst in strong mode, the best in weak
    mode) of the product of :func:`zero_rm`, the base game on its reachable
    states, solved once; with no equilibrium, its least global weight.
    Paying nothing keeps ``b``, so every ``delta < 0`` is a yes with that
    machine, witnessed by the extreme in strong mode and by the first
    signature above ``b + delta`` in weak mode.  At ``delta >= 0`` the paying
    machines of :func:`_candidates` are tried in order; the first whose
    product's extreme exceeds ``b + delta`` wins:

    * strong mode: a candidate loses at the first equilibrium signature
      worth at most ``b + delta`` (:meth:`NashLassoSolver.threshold_signature`);
      one with none wins, and its worst extreme is read and certified;
    * weak mode: a candidate wins at the first signature worth strictly
      more than ``b + delta``, which is certified.

    A winner needs a certified witness: a product with no equilibrium is
    worth at most ``b``, since every reachable base state occurs in it at
    its global weight less a payment.  Every witness lasso passes the exact
    best-response certificate on its game, else :class:`SolverLimitError`.

    Before any candidate is built, ``b + delta`` is compared with ``ub``,
    the base game's largest reachable cycle mean.  A product state
    ``(s, m)`` moves as ``s`` does and weighs no more than ``s``, so a
    product cycle projects onto a reachable closed walk of the base game,
    of mean at most ``ub``, and no product of any machine has an
    equilibrium value or least global weight above ``ub``.  When
    ``ub <= b + delta`` the answer is "no" for every machine of every
    budget, against the reported baseline.  Any other "no" means only that
    no candidate improved, and its losers' signatures are not certified.

    What an arena derives (deviation moves, response classes, products) it
    keeps for its lifetime, across calls: the baseline's and all subsidy
    schemes' products share one arena.  Within one call, and never across,
    all products' solvers share one :class:`SolverMemo`: most candidates
    are subsidy schemes, which raise one player's weights at one or two
    states, so most punishment solves and structures are found there.  The
    auxiliary game's solver has a memo of its own; no other game shares
    its arena.  Certify gives each game one solver, none to ``game`` itself.
    """
    maximize = q.mode == "weak"
    if q.method == "paper":
        base, _ = _search(NashLassoSolver(game, None, q.bound), q.epsilon, maximize, "oracle")
        aux = build_auxiliary(game, q.budget)
        aux_solver = NashLassoSolver(aux.game, 0, q.bound)
        aux_search, rec = _search(aux_solver, q.epsilon, maximize, "oracle")
        decision = aux_search.value - base.value > q.delta
        rm = lasso = owner = None
        if decision and rec is not None:
            lasso = aux_solver.witness(rec).lasso
            rm = replay_machine(aux, lasso)
            owner = aux.game
        return ImprovementAnswer(decision, base.value, aux_search.value, rm, lasso,
                                 owner, "paper", q.mode)

    memo = SolverMemo()
    nothing = zero_rm(game)
    base = implement(game, nothing)
    solver = NashLassoSolver(base, None, q.bound, memo)
    extreme = _extreme_witness(solver, maximize)
    baseline = _value(base, extreme)
    threshold = baseline + q.delta
    if q.delta < 0:  # paying nothing keeps b, above b + delta
        witness = (solver.witness(solver.threshold_signature(threshold, True))
                   if maximize and extreme is not None else extreme)
        lasso, owner = (None, None) if witness is None else (witness.lasso, base)
        return ImprovementAnswer(True, baseline, _value(base, witness), nothing,
                                 lasso, owner, "certify", q.mode)
    no = ImprovementAnswer(False, baseline, baseline, None, None, None, "certify", q.mode)
    arena = base.arena
    succs = [list({t for _, t in arena.moves(s)}) for s in range(arena.n_states)]
    if max_mean_value_function(succs, base.global_weights)[arena.initial] <= threshold:
        return no
    for rm in _candidates(game, q):
        # Freed before the next product is built, which then reuses its
        # memory: kept alive, the criterion-5 decisions ran ~2% slower.
        del solver
        product = implement(game, rm)
        solver = NashLassoSolver(product, None, q.bound, memo)
        found = solver.threshold_signature(threshold, maximize)
        if maximize:
            witness = None if found is None else solver.witness(found)
        else:
            # No signature at or below the threshold: the worst lies above it.
            witness = None if found is not None else _extreme_witness(solver, False)
        if witness is not None:
            return ImprovementAnswer(True, baseline, witness.global_payoff, rm,
                                     witness.lasso, product, "certify", q.mode)
    return no


def synthesize_rm(game: Game, q: ImprovementQuery) -> RewardMachine:
    """Witness machine of a positive improvement decision.

    Raises :class:`SolverLimitError` when the decision is negative or the
    chosen method produced no concrete machine.
    """
    answer = decide_improvement(game, q)
    if not answer.decision or answer.witness_rm is None:
        raise SolverLimitError("no witness reward machine for this query")
    return answer.witness_rm

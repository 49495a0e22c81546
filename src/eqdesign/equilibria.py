"""Deciding the equilibrium threshold problem and certifying outcomes.

A lasso is an equilibrium outcome exactly when, at every step, every
player's cycle payoff matches or beats the punishment value of every state
they could unilaterally force instead (deviations reproducing the same
successor are unobservable under state-reading strategies and are ignored).
Grim-trigger profiles realize such lassos with finite memory, which makes
the threshold problem a search over lassos.

Only the order of the finitely many punishment values shapes the move
classes and the lattice of deviation ceilings, so both are keyed by ranks:
the punishment solver returns each player's distinct values ascending
(``PunishmentResult.levels``) and each state's rank among them, and a
ceiling holds per player the index of the worst punishment it admits, or -1
where no deviation is observable (always for the fixed player).  The join
is the elementwise max, domination the elementwise ``<=``.  Each ceiling's
sub-arena is one record (``_Ceiling``): the classes it allows, their
successors and its breadth-first tree, which the sweep, ``realize``, the LP
and every witness's prefix read, plus its LP polytopes and walk steps once
first read.  Records hold no weight and no punishment value, so solvers of
one arena whose punishments have the same ranks share them through a
:class:`SolverMemo`.  A solver reads its punishment values in one place: its
floor rows, per ceiling one payoff row (:func:`_row`) per player it bounds,
which the sweep and the LP read alongside a query's window.

Two backends answer threshold queries:

* ``oracle`` - exhaustive over lassos with prefix plus cycle length at most
  a bound.  Cycles are explored by a layered walk over successor states
  with the per-player deviation ceiling fixed up front, so the sweep
  enumerates achievable weight-sum vectors rather than raw walks.  Each
  vector (every player, then the global table) is packed into one int of
  fixed-width signed fields, so a step of the walk is one int addition.
  Every bound a closed cycle must meet, a ceiling's floors, a query's
  window and a designer bound, is a payoff row, tested as a least or
  greatest value of one field, and only a cycle that passes every row is
  decoded.  ``realize`` replays the same walk and follows a signature's
  packed sums back to a concrete lasso.  A designer row also prunes the
  walk, once a layer holds more than ``PRUNE_LAYER_SUMS`` sums: a floor
  (``signatures(top=...)``, which certify's replay candidates read, the
  best extreme's sweep and a threshold question from above) drops a
  partial cycle when even the best designer return to its anchor cannot
  lift it to the floor, and a ceiling (the worst extreme's sweep and a
  threshold question from below) drops one when even the least return
  cannot bring it down to the ceiling.  A threshold question
  (``threshold_signature``) fixes its row from the first layer and stops
  at the first signature that meets it.  Rows filter whole cycles and
  pruning drops no state from a layer, so the records kept, their first
  ceiling, prefix length and order, and every realized lasso, are those of
  the exhaustive sweep.
* ``lp`` - unbounded cycle-frequency feasibility: for every deviation
  ceiling and every strongly connected sub-arena, an exact LP over move
  frequencies decides whether a cycle with the requested payoffs exists.
  Its rows are integers: each payoff row is multiplied by one common ``L``,
  the lcm of the denominators of its bounds, so the
  fraction-free simplex reaches the vertex of the unscaled rational LP.  A
  frequency vertex is scaled to integers and unrolled into an Euler circuit
  to recover a concrete lasso; both backends reach its cycle by the tree
  path (``NashLassoSolver._lasso``).

Both backends return a witness only through one certificate, the only
check of a lasso built here: its grim-trigger profile must survive every
non-fixed player's exact best response, or the query is refused with
``SolverLimitError``.  With two players it refuses every lasso the
folk-theorem test refuses; with more, whatever passes is an equilibrium.
A caller's lasso is checked where it enters (``is_ne_outcome``,
``grim_trigger_profile``, ``payoffs``).
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .games import (
    Arena,
    Game,
    InvalidLassoError,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    mean_payoff,
    payoffs,
    tabulate,
)
from .simplex import Constraint, feasible_point
from .zerosum import (
    PunishmentResult,
    SolverLimitError,
    best_response_unchecked,
    punishment_values,
    strongly_connected_components,
)

POS_INF = math.inf
NEG_INF = -math.inf
# The two ways a threshold query is answered (module docstring).
BACKENDS = ("oracle", "lp")

# Effort budgets: the size of the deviation-ceiling lattice, and the length
# of every lasso: a solver's bound and a lasso unrolled from an LP vertex.
CEILING_LIMIT = 4096
LASSO_LENGTH_CAP = 4096
# A designer floor prunes the oracle walk only from the first layer holding
# more packed sums than this: below it, building the pruning tables costs
# more than the sums they could drop.
PRUNE_LAYER_SUMS = 256

Bound = object  # int, Fraction or +-inf
Row = tuple[int, int, int]  # a payoff row (:func:`_row`)


@dataclass(frozen=True)
class ThresholdQuery:
    """Payoff window for the equilibrium threshold problem.

    ``lower``/``upper`` bound each player's payoff, the global pair bounds
    the designer value; infinities mean "no constraint", and every finite
    bound is an exact ``int`` or ``Fraction``.  ``fixed_player``
    requests j-fixed equilibria: that player's deviations are not checked.
    """

    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    global_lower: Bound = NEG_INF
    global_upper: Bound = POS_INF
    fixed_player: int | None = None

    def __post_init__(self) -> None:
        for b in (*self.lower, *self.upper, self.global_lower, self.global_upper):
            if type(b) not in (int, Fraction) and b not in (NEG_INF, POS_INF):
                raise ValueError(f"query bound {b!r} is not an int, a Fraction or an infinity")
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper bounds must cover the same players")
        if self.fixed_player is not None and type(self.fixed_player) is not int:
            raise ValueError(f"fixed player {self.fixed_player!r} is not a player index")
        # A lower bound of +inf or an upper bound of -inf admits no payoff.
        for lo, hi in (*zip(self.lower, self.upper), (self.global_lower, self.global_upper)):
            if lo > hi or lo == POS_INF or hi == NEG_INF:
                raise ValueError(f"empty payoff window [{lo}, {hi}]")


@dataclass(frozen=True)
class NEWitness:
    """Certified equilibrium outcome: lasso, grim-trigger profile, payoffs."""

    lasso: Lasso
    profile: StrategyProfile
    player_payoffs: tuple[Fraction, ...]
    global_payoff: Fraction


def _check_fixed(game: Game, fixed: int | None) -> None:
    # bool is an int subclass; True is refused, not read as player 1.
    if fixed is not None and (type(fixed) is not int or fixed not in range(game.n_players)):
        raise ValueError(f"fixed player {fixed!r} is not a player index")


def _punishments(game: Game, fixed: int | None) -> dict[int, PunishmentResult]:
    return {i: punishment_values(game, i) for i in range(game.n_players) if i != fixed}


def is_ne_outcome(game: Game, lasso: Lasso, fixed: int | None = None) -> bool:
    """Folk-theorem check: no observable unilateral deviation beats the play."""
    _check_fixed(game, fixed)
    mp, _ = payoffs(game, lasso)
    return _unbeaten(game, lasso, fixed, mp, _punishments(game, fixed))


def _unbeaten(game: Game, lasso: Lasso, fixed: int | None, mp: Sequence[Fraction],
              pun: Mapping[int, PunishmentResult]) -> bool:
    """Whether no step of ``lasso`` lets a player force a state whose
    punishment beats its payoff in ``mp``."""
    return not any(i != fixed and any(mp[i] < pun[i].values[d] for d in devs)
                   for s, joint, _ in lasso.steps()
                   for i, devs in enumerate(game.arena.deviations(s, joint)))


def grim_trigger_profile(game: Game, lasso: Lasso, fixed: int | None = None) -> StrategyProfile:
    """Finite-memory realization of an equilibrium lasso.

    Everyone follows the lasso; at the first off-path state each player
    switches permanently to the positional punishment of the player who
    could have forced it.  When several players could have, every punisher
    assumes it was the least culprit other than itself, so with two players
    the true deviator always meets its own punishment.  Divergences no
    player explains fall into an inert mode, which certified lassos never
    reach.
    """
    _check_fixed(game, fixed)
    pun = _punishments(game, fixed)
    if not _unbeaten(game, lasso, fixed, payoffs(game, lasso)[0], pun):
        raise InvalidLassoError("grim trigger requires an equilibrium lasso")
    return _grim_trigger(game, lasso, fixed, pun)


def _grim_trigger(game: Game, lasso: Lasso, fixed: int | None,
                  pun: Mapping[int, PunishmentResult]) -> StrategyProfile:
    states_at = list(lasso.prefix_states) + list(lasso.cycle_states)
    moves_at = list(lasso.prefix_moves) + list(lasso.cycle_moves)
    n_pre = len(lasso.prefix_states)
    length = len(states_at)

    # Memory ids: follow positions 0..length-1 (position n_pre = first cycle
    # visit), one extra "wrapped cycle start" so the predecessor of every
    # follow state is unambiguous, then one punish mode per player, then an
    # inert mode.
    wrap = length
    punish_base = length + 1
    punished_players = [i for i in range(game.n_players) if i != fixed]
    inert = punish_base + len(punished_players)
    n_memory = inert + 1

    # Per follow memory, the successors each punished player could have forced
    # on the step into it (none before the first step; wrap's is the last).
    forced_into = [()] + [[devs[i] for i in punished_players]
                          for devs in map(game.arena.deviations, states_at, moves_at)]

    def cell(p: int, m: int, s: int) -> tuple[int, int]:
        mode = m
        if m < punish_base:
            pos = n_pre if m == wrap else m
            if s == states_at[pos]:
                return (pos + 1 if pos + 1 < length else wrap), moves_at[pos][p]
            # Off the lasso: punish the least player other than p who could
            # have forced s, or go inert if none could.
            mode = inert
            for k, (i, devs) in enumerate(zip(punished_players, forced_into[m])):
                if i != p and s in devs:
                    mode = punish_base + k
                    break
        if mode != inert:
            victim = punished_players[mode - punish_base]
            if p != victim:
                return mode, pun[victim].coalition[s][p]
        return mode, game.protocol[p][s][0]

    strategies = [
        MealyStrategy(n_memory, 0, *tabulate(n_memory, game.n_states, functools.partial(cell, p)))
        for p in range(game.n_players)
    ]
    return StrategyProfile(tuple(range(game.n_players)), tuple(strategies))


# ---------------------------------------------------------------------------
# Move classes and deviation ceilings


class _MoveClass(NamedTuple):
    succ: int
    devmax: tuple[int, ...]
    joint: tuple[int, ...]


@dataclass(eq=False, slots=True)
class _Ceiling:
    """A deviation ceiling's sub-arena, which holds no punishment value: the
    worst punishment rank it admits per player (``ranks``, -1 for none),
    the classes it allows at each state (``allowed``, in class order), their
    distinct successors in that order (``succs``), and the breadth-first
    ``tree`` from the initial state, mapping each reachable state to
    ``(distance, parent, class)``: the parent is the first state of the
    previous layer, in layer order, with a class into it; the root's parent
    and class are None.  It keeps, built on first use, its LP polytopes
    (:meth:`polytopes`) and its own per-anchor walk steps (:meth:`steps`) in
    ``kept_steps``."""

    ranks: tuple[int, ...]
    allowed: list[list[_MoveClass]]
    succs: list[list[int]]
    tree: dict[int, tuple]
    kept_steps: dict[int, list[list[tuple[int, int]] | None]] = field(default_factory=dict)
    _polytopes: list[tuple[set[int], list]] | None = None

    def steps(self, anchor: int) -> list[list[tuple[int, int]] | None]:
        """The walks' moves at ``anchor``: for each state ``s >= anchor``
        that can return to it over such states, the successors that can
        too, in ``succs`` order, each with its steps back to the anchor;
        None for every other state."""
        steps = self.kept_steps.get(anchor)
        if steps is None:
            succs = self.succs
            preds: dict[int, list[int]] = {}
            for s in range(anchor, len(succs)):
                for t in succs[s]:
                    preds.setdefault(t, []).append(s)
            back = {anchor: 0}
            frontier = [anchor]
            for t in frontier:
                for s in preds.get(t, ()):
                    if s not in back:
                        back[s] = back[t] + 1
                        frontier.append(s)
            # A list by state, not a dict: kept for every anchor of every
            # record, it is a memo's largest table.
            steps = self.kept_steps[anchor] = [
                [(t, back[t]) for t in succs[s] if t in back] if s in back else None
                for s in range(len(succs))]
        return steps

    def polytopes(self) -> list[tuple[set[int], list[tuple[int, _MoveClass]]]]:
        """``(members, edges)`` per reachable strongly connected component
        with moves, by least member: the LP's sub-arenas."""
        if self._polytopes is None:
            # A component is reachable when one of its states is.
            comps = [comp for comp in strongly_connected_components(self.succs)
                     if comp[0] in self.tree]
            self._polytopes = []
            for comp in sorted(comps, key=min):
                members = set(comp)
                edges = [(s, cls) for s in sorted(members)
                         for cls in self.allowed[s] if cls.succ in members]
                if edges:
                    self._polytopes.append((members, edges))
        return self._polytopes


def _vec_le(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(operator.le, a, b))


def _build_classes(arena: Arena, rank: Sequence[tuple[int, ...] | None]) -> list[list[_MoveClass]]:
    """Per state, the move classes under the punishment ranks ``rank``:
    ``rank[i][d]`` is the index of player i's punishment at d in its
    levels, and ``rank[i]`` is None for the fixed player."""
    # peak(i, devs): the worst punishment rank player i can force, or -1.
    peak = functools.cache(lambda i, devs: max([rank[i][d] for d in devs])
                           if rank[i] and devs else -1)
    per_state: list[list[_MoveClass]] = []
    for moves, least in arena.deviation_moves:
        # Moves come by least joint action, so the first is the least,
        # and a stable sort by successor keeps that order.
        by_key: dict[tuple, tuple[int, ...]] = {}
        for (succ, devs), joint in zip(moves, least):
            by_key.setdefault((succ, tuple(map(peak, range(len(rank)), devs))), joint)
        # Drop classes dominated by a same-successor class with weaker
        # deviation ceilings.
        same: dict[int, list[tuple[int, ...]]] = {}
        for succ, devmax in by_key:
            same.setdefault(succ, []).append(devmax)
        per_state.append([
            _MoveClass(succ, devmax, joint)
            for (succ, devmax), joint in sorted(by_key.items(), key=lambda kv: kv[0][0])
            if not any(d != devmax and _vec_le(d, devmax) for d in same[succ])
        ])
    return per_state


def _build_ceilings(arena: Arena, classes: list[list[_MoveClass]]) -> list[tuple[int, ...]]:
    """The ceiling lattice of the move ``classes``, least first."""
    # After each seed (a class ceiling), ``closed`` holds the join of every
    # subset of the seeds read, the empty one being the bottom.
    closed = {(-1,) * len(arena.protocol)}
    for seed in {c.devmax for per_state in classes for c in per_state}:
        closed |= {tuple(map(max, seed, u)) for u in closed}
        # The set only grows, so the seeds alone count toward the limit.
        if len(closed) > CEILING_LIMIT:
            raise SolverLimitError("deviation ceiling lattice too large")
    return sorted(closed)


def _ceiling(arena: Arena, classes: list[list[_MoveClass]], ranks: tuple[int, ...]) -> _Ceiling:
    """The record of the ceiling ``ranks`` over the move ``classes`` of ``arena``."""
    allowed = [[c for c in per_state if _vec_le(c.devmax, ranks)] for per_state in classes]
    succs = [list(dict.fromkeys(c.succ for c in kept)) for kept in allowed]
    tree: dict[int, tuple] = {arena.initial: (0, None, None)}
    # States are expanded in the order they enter the tree: layer by layer.
    order = [arena.initial]
    for s in order:
        for c in allowed[s]:
            if c.succ not in tree:
                tree[c.succ] = (tree[s][0] + 1, s, c)
                order.append(c.succ)
    return _Ceiling(ranks, allowed, succs, tree)


# ---------------------------------------------------------------------------
# Packed weight sums
#
# A vector of weight sums (every player, then the global table) travels
# through the walk as one int: field k holds entry k as a signed
# ``width``-bit integer at bit ``k * width``.  Packing is linear, so adding
# packed vectors adds them entrywise as long as no entry leaves its field;
# ``_field_width`` leaves two spare bits above the largest sum a lasso of the
# length bound can reach.


def _field_width(max_abs_weight: int, bound: int) -> int:
    return (max_abs_weight * bound).bit_length() + 2


def _pack_sums(vec: Sequence[int], width: int) -> int:
    x = 0
    for v in reversed(vec):
        x = (x << width) + v
    return x


def _unpack_sums(x: int, width: int, n: int) -> tuple[int, ...]:
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    for _ in range(n):
        v = ((x + half) & mask) - half
        out.append(v)
        x = (x - v) >> width
    return tuple(out)


def _row(k: int, sign: int, bound) -> Row:
    """Payoff row ``sign * payoff k >= sign * p/q`` (the designer's at ``k = n``),
    kept as the integers ``(k, sign*q, sign*p)``."""
    return k, sign * bound.denominator, sign * bound.numerator


def _window(query: ThresholdQuery) -> list[Row]:
    """Payoff rows of ``query``: per player its lower and upper bound, then
    the global bounds.  Infinite bounds make no row."""
    rows = []
    for k, (lo, hi) in enumerate((*zip(query.lower, query.upper),
                                  (query.global_lower, query.global_upper))):
        if lo != NEG_INF:
            rows.append(_row(k, 1, lo))
        if hi != POS_INF:
            rows.append(_row(k, -1, hi))
    return rows


def _meets(rows: Sequence[Row], sums: Sequence, length: int) -> bool:
    """Whether weight ``sums`` over ``length`` steps pass every row."""
    return all(sums[k] * q >= p * length for k, q, p in rows)


class SolverMemo:
    """Where solvers get their punishments and ceiling records: a solver
    builds its own memo unless it is given one, as ``NashLassoSolver``'s
    ``shared``.  Punishments are kept by arena, player and weight row,
    ceiling records by arena and punishment ranks, which is all they are
    built from; each record keeps its own walk steps.  No record holds a
    punishment value: each solver reads its own as floor rows.
    """

    def __init__(self) -> None:
        self._punished: dict[tuple, PunishmentResult] = {}
        self._structures: dict[tuple, list[_Ceiling]] = {}

    def punishment(self, game: Game, player: int) -> PunishmentResult:
        key = (game.arena, player, game.weights[player])
        found = self._punished.get(key)
        if found is None:
            found = self._punished[key] = punishment_values(game, player)
        return found

    def structure(self, arena: Arena, rank: tuple[tuple[int, ...] | None, ...],
                  ) -> list[_Ceiling]:
        """The ceiling records of ``arena`` under the punishment ranks
        ``rank`` (:func:`_build_classes`), least ceiling first."""
        key = (arena, rank)
        found = self._structures.get(key)
        if found is None:
            classes = _build_classes(arena, rank)
            found = self._structures[key] = [
                _ceiling(arena, classes, ranks) for ranks in _build_ceilings(arena, classes)]
        return found


class NashLassoSolver:
    """Threshold queries over one game, one fixed player, one length bound.

    Punishment tables and the arena's ceiling records come from a
    :class:`SolverMemo`: ``shared`` when given, else one of the solver's
    own.  A shared memo solves or builds only what no earlier solver of
    that memo did, and each ceiling record keeps its own walk steps for
    the solvers to come.  The solver reads its punishment values once, into
    one list of floor rows per ceiling.  Oracle sweeps and LP queries share
    all of it: instances are cheap to build relative to the queries they
    answer and are meant to be reused across a binary search.  No sweep
    is kept: each oracle query sweeps with its own rows.  ``bound``
    is at most ``LASSO_LENGTH_CAP``.
    """

    def __init__(self, game: Game, fixed: int | None = None, bound: int = 12,
                 shared: SolverMemo | None = None):
        if type(bound) is not int or bound < 1:
            raise ValueError(f"lasso length bound {bound!r} is not a positive int")
        if bound > LASSO_LENGTH_CAP:
            raise SolverLimitError(f"lasso length bound {bound} exceeds {LASSO_LENGTH_CAP}")
        _check_fixed(game, fixed)
        self.game = game
        self.fixed = fixed
        self.bound = bound
        memo = shared or SolverMemo()
        self.pun = {i: memo.punishment(game, i) for i in range(game.n_players) if i != fixed}
        rows = (*game.weights, game.global_weights)
        self._width = _field_width(max(abs(w) for row in rows for w in row), bound)
        self._wpack = [_pack_sums(col, self._width) for col in zip(*rows)]
        self._ceilings = memo.structure(game.arena, tuple(
            self.pun[i].ranks if i in self.pun else None for i in range(game.n_players)))
        # Per ceiling, one floor row per player it bounds, in player order.
        self._floors = [[_row(k, 1, self.pun[k].levels[r]) for k, r in enumerate(cei.ranks)
                         if r >= 0] for cei in self._ceilings]

    # -- oracle sweep ---------------------------------------------------------

    def _sweep(self, rows: Sequence[Row] = (), top: int | None = None,
               sign: int = 1, designer: Row | None = None,
               first: bool = False) -> list[tuple]:
        """Equilibrium cycle signatures within the length bound that pass the
        payoff ``rows``, least first.

        A signature is ``(ceiling index, anchor state, cycle length, weight
        sums, prefix length)``; the anchor is the least state on the cycle,
        weight sums run over all players plus the global table.  With no
        ``rows``, ``top`` or ``designer`` the sweep is exhaustive: every
        equilibrium lasso with prefix + cycle within the bound projects onto
        exactly one signature.

        ``top`` keeps only the signatures worth at least its ``top``-th most
        valuable (value, length) pair, all of them when there are fewer
        pairs; with ``sign`` -1, those worth at most its ``top``-th least
        pair.  The sweep keeps that bound as the designer row, the value of
        the ``top``-th pair recorded so far: a floor that rises or, with
        ``sign`` -1, a ceiling that falls, and the walk drops every partial
        cycle that can no longer meet it.

        ``designer``, in place of ``top``, is a designer row fixed by the
        caller: the walk prunes by it as by ``top``'s, from the first layer
        on.  With ``first`` the sweep stops at the first signature that
        passes, in walk order, and lists it alone, unsorted.

        When a cycle closes, its packed sums are tested against the
        ceiling's floor rows, ``rows`` and the designer row, each as
        ``lo <= field <= hi`` on one packed field; only a cycle that passes
        is decoded.
        """
        game = self.game
        # Designer values sums/length are exact ints in units of 1/scale.
        scale = math.lcm(*range(1, self.bound + 1))
        width, n_sums = self._width, game.n_players + 1
        # Offset by ``half``, every field of a packed sum lies in [0, 2**width),
        # so each row reads its own field with one shift and mask.
        half, mask = 1 << (width - 1), (1 << width) - 1
        offset = _pack_sums((half,) * n_sums, width)
        # With ``top``, ``designer`` becomes (n, sign * scale, best[0][0]) once set.
        # The top (sign * value * scale, sign * length) pairs, least first.
        best: list[tuple[int, int]] = []
        out: list[tuple] = []
        seen: set[tuple[int, int, int]] = set()
        read = None if top is None and designer is None else lambda: designer
        for ci, (cei, floors) in enumerate(zip(self._ceilings, self._floors)):
            for anchor in sorted(cei.tree):
                prefix_len = cei.tree[anchor][0]
                budget = self.bound - prefix_len
                if budget < 1:
                    continue
                for length, layer in enumerate(self._walk(cei, anchor, budget, read), 1):
                    closed = layer.get(anchor)
                    if not closed:
                        continue
                    # A lower bound (q > 0) is a least field, an upper bound
                    # (q < 0) a greatest one.
                    tested = (*floors, *rows) if designer is None else (*floors, *rows, designer)
                    bounds = [(k * width, half - (-p * length // q), mask) if q > 0
                              else (k * width, 0, half + p * length // q)
                              for k, q, p in tested]
                    for packed in closed:
                        fields = packed + offset
                        for shift, lo, hi in bounds:
                            if not lo <= (fields >> shift) & mask <= hi:
                                break
                        else:
                            key = (anchor, length, packed)
                            if key in seen:
                                continue
                            seen.add(key)
                            sums = _unpack_sums(packed, width, n_sums)
                            out.append((ci, anchor, length, sums, prefix_len))
                            if first:
                                return out
                            if top is None:
                                continue
                            pair = (sign * sums[-1] * (scale // length), sign * length)
                            if pair not in best and (len(best) < top or pair > best[0]):
                                insort(best, pair)
                                del best[:-top]
                                if len(best) == top:
                                    designer = (n_sums - 1, sign * scale, best[0][0])
        if designer is not None:
            out = [rec for rec in out if _meets((designer,), rec[3], rec[2])]
        out.sort(key=lambda rec: (rec[3][-1] * (scale // rec[2]), rec[2], rec[1], rec[3]))
        return out

    def _walk(self, cei: _Ceiling, anchor: int, horizon: int,
              designer: Callable[[], Row | None] | None = None,
              ) -> Iterator[dict[int, set[int]]]:
        """Layered reachability of packed weight sums on cycles at ``anchor``.

        Yields, for k = 1, 2, ..., the map from each state to the packed
        weight sums of the k-step walks from ``anchor`` over states >=
        ``anchor`` that can still return to it within ``horizon`` steps;
        the sums at ``anchor`` itself are the cycles of length k.  States
        enter a layer in the order their predecessors are visited, each
        predecessor's successors in the ceiling's ``succs`` (class) order;
        ``realize`` relies on it.

        ``designer()``, read before each layer, may return a designer row
        (:func:`_row`, at ``k = n``): a floor (q > 0) or a ceiling (q < 0).
        The layer then keeps only the sums that can still close a cycle
        meeting it, by the best designer return to the anchor
        (:meth:`_designer_limits`), so a row moved during the walk prunes
        the layers after it.  A state whose sums are all dropped keeps its
        place, empty, so the states and their order are those of the
        unpruned walk.  Pruning starts at the first layer holding more than
        ``PRUNE_LAYER_SUMS`` sums, and a row that every designer weight
        meets prunes nothing and is ignored.
        """
        wpack, g = self._wpack, self.game.global_weights
        steps = cei.steps(anchor)
        row = limits = None
        layer: dict[int, set[int]] = {anchor: {0}}
        for k in range(1, horizon + 1):
            rem = horizon - k
            nxt: dict[int, set[int]] = {}
            for s, xs in layer.items():
                shifted = None
                for t, d in steps[s]:
                    if d > rem:
                        continue
                    if shifted is None:
                        w = wpack[s]
                        shifted = {x + w for x in xs}
                    bucket = nxt.get(t)
                    if bucket is None:
                        nxt[t] = set(shifted)
                    else:
                        bucket |= shifted
            if not nxt:
                return
            # The layer size first: most walks never reach the gate.
            if designer is not None and (
                    limits is not None or sum(map(len, nxt.values())) > PRUNE_LAYER_SUMS
            ) and designer() != row:
                row = designer()
                limits = (None if row is None or row[2] <= min(row[1] * w for w in g)
                          else self._designer_limits(steps, anchor, horizon, row))
            if limits is not None:
                up = row[1] > 0
                for t, xs in nxt.items():
                    lim = limits[k][t]
                    if xs and (min(xs) < lim if up else max(xs) > lim):
                        nxt[t] = {x for x in xs if x >= lim} if up else {x for x in xs if x <= lim}
            yield nxt
            layer = nxt

    def _designer_limits(self, steps: list[list[tuple[int, int]] | None], anchor: int,
                         horizon: int, row: Row) -> list[dict[int, int]]:
        """Per step k <= ``horizon`` and state t, the bound on the packed sums
        a k-step walk at t may carry and still close a cycle within
        ``horizon`` steps that meets the designer ``row``: the least sums
        for a floor (q > 0), the greatest for a ceiling (q < 0).

        Offset by ``half``, every field below the designer's is nonnegative,
        so packed sums order by their top field, the designer's: its value
        is at least d exactly when the packed sums are at least
        ``(d << shift) - offset``, and at most d exactly when they are below
        ``((d + 1) << shift) - offset``.
        """
        _, q, p = row
        n, width = self.game.n_players, self._width
        shift, offset = n * width, _pack_sums((1 << (width - 1),) * n, width)
        qg = [q * w for w in self.game.global_weights]
        limits: list[dict[int, int]] = [{}] * (horizon + 1)
        # best[s]: the greatest q times the designer sum of a j-step walk from
        # s to the anchor; gain[s]: the greatest best - p*j over the j seen so far.
        best = {anchor: 0}
        gain: dict[int, int] = {}
        for j in range(horizon):
            for s, b in best.items():
                v = b - p * j
                if s not in gain or v > gain[s]:
                    gain[s] = v
            # After k steps, with j left, the designer sum D needs D*q + gain >= p*k.
            k = horizon - j
            limits[k] = ({t: (-((v - p * k) // q) << shift) - offset for t, v in gain.items()}
                         if q > 0 else
                         {t: (((p * k - v) // q + 1) << shift) - offset - 1
                          for t, v in gain.items()})
            nxt = {}
            for s, ts in enumerate(steps):
                most = None if ts is None else max(
                    [best[t] for t, _ in ts if t in best], default=None)
                if most is not None:
                    nxt[s] = qg[s] + most
            best = nxt
        return limits

    def global_values(self) -> list[Fraction]:
        """Sorted distinct designer values over all equilibrium signatures."""
        return sorted({Fraction(rec[3][-1], rec[2]) for rec in self._sweep()})

    def has_equilibrium(self) -> bool:
        return bool(self._sweep())

    def query_oracle(self, query: ThresholdQuery) -> tuple | None:
        """Least signature satisfying the query, or None."""
        self._check_query(query)
        return next(iter(self._sweep(_window(query))), None)

    def extreme_signature(self, maximize: bool = False) -> tuple | None:
        """The least (or greatest) signature of the exhaustive list.

        A sweep whose designer row moves toward the extreme finds it
        (``top`` 1: a floor for the greatest, a ceiling for the least), and
        lists the exhaustive list cut at the extreme's value: the same
        record, so the same ceiling, prefix and realized lasso.
        """
        found = self._sweep((), 1, 1 if maximize else -1)
        if not found:
            return None
        return found[-1] if maximize else found[0]

    def threshold_signature(self, threshold: Fraction,
                            maximize: bool = False) -> tuple | None:
        """The first signature the sweep meets worth at most ``threshold``
        (or, ``maximize``, strictly more), or None when there is none.

        The threshold is the sweep's designer row from the first layer, so
        the walk drops what cannot meet it, and the sweep stops at the first
        signature that does.  Every designer value is a multiple of
        ``1/scale``, ``scale`` the lcm of the lengths up to the bound, so
        "strictly more" is "at least the next multiple above ``threshold``".
        """
        # bool is an int subclass; it and floats are refused, not converted.
        if type(threshold) not in (int, Fraction):
            raise ValueError(f"threshold {threshold!r} is not an int or a Fraction")
        n = self.game.n_players
        if maximize:
            scale = math.lcm(*range(1, self.bound + 1))
            row = _row(n, 1, Fraction(math.floor(threshold * scale) + 1, scale))
        else:
            row = _row(n, -1, threshold)
        return next(iter(self._sweep(designer=row, first=True)), None)

    def signatures(self, top: int | None = None) -> list[tuple]:
        """Equilibrium signatures, least designer value first.

        With ``top``, only those worth at least the ``top``-th most valuable
        (value, length) pair, and the sweep lists no others.
        """
        if top is not None and (type(top) is not int or top < 1):
            raise ValueError(f"top {top!r} is not a positive int")
        return self._sweep((), top)

    def _check_query(self, query: ThresholdQuery) -> None:
        if len(query.lower) != self.game.n_players:
            raise ValueError("query bounds must cover every player")
        if query.fixed_player != self.fixed:
            raise ValueError(
                "query fixed player differs from the solver's fixed player"
            )

    # -- witness extraction ----------------------------------------------------

    def realize(self, rec: tuple) -> Lasso:
        """Rebuild a concrete lasso from a sweep signature.

        Replays the sweep's walk with horizon ``length``, pruned by the
        signature's own designer value as a floor row, and follows each
        packed sum back to its first parent: the first state of the previous
        layer, in layer order, whose first class into the current state
        carries a sum that explains it.  Every step of that path reaches the value, so pruning
        keeps it, and keeps the layer order: the lasso is the unpruned walk's.
        Walks whose layers stay small are not pruned (``PRUNE_LAYER_SUMS``).
        """
        ci, anchor, length, sums, _ = rec
        cei = self._ceilings[ci]
        floor = (self.game.n_players, length, sums[-1])
        walk = self._walk(cei, anchor, length, lambda: floor)
        layers = [{anchor: {0}}, *walk]
        packed = _pack_sums(sums, self._width)
        if (_unpack_sums(packed, self._width, self.game.n_players + 1) != tuple(sums)
                or len(layers) <= length
                or packed not in layers[length].get(anchor, ())):
            raise SolverLimitError("signature no longer realizable")
        wpack = self._wpack
        cyc_states: list[int] = []
        cyc_moves: list[tuple[int, ...]] = []
        cur_state = anchor
        for k in range(length - 1, -1, -1):
            for s, xs in layers[k].items():
                prev = packed - wpack[s]
                if prev not in xs:
                    continue
                cls = next((c for c in cei.allowed[s] if c.succ == cur_state), None)
                if cls is not None:
                    break
            cyc_states.append(s)
            cyc_moves.append(cls.joint)
            cur_state, packed = s, prev
        return self._lasso(cei.tree, cyc_states[::-1], cyc_moves[::-1])

    def _lasso(self, tree: dict[int, tuple], cyc_states: Sequence[int],
               cyc_moves: Sequence[tuple[int, ...]]) -> Lasso:
        """The lasso that reaches the cycle's first state by a
        ceiling's breadth-first ``tree`` (:class:`_Ceiling`), then loops."""
        if cyc_states[0] not in tree:
            raise SolverLimitError("anchor unreachable while rebuilding the prefix")
        states: list[int] = []
        moves: list[tuple[int, ...]] = []
        _, prev, cls = tree[cyc_states[0]]
        while cls is not None:
            states.append(prev)
            moves.append(cls.joint)
            _, prev, cls = tree[prev]
        return Lasso(tuple(states[::-1]), tuple(cyc_states),
                     tuple(moves[::-1]), tuple(cyc_moves))

    def witness(self, rec: tuple) -> NEWitness:
        return self._certify(self.realize(rec))

    def _certify(self, lasso: Lasso) -> NEWitness:
        """Grim-trigger profile of ``lasso``, checked by exact best responses."""
        profile = _grim_trigger(self.game, lasso, self.fixed, self.pun)
        per = tuple(mean_payoff(w, lasso) for w in self.game.weights)
        glob = mean_payoff(self.game.global_weights, lasso)
        for i in range(self.game.n_players):
            if i == self.fixed:
                continue
            br = best_response_unchecked(self.game, profile.without(i), i)
            if br > per[i]:
                raise SolverLimitError(
                    "grim profile failed its exact best-response certificate"
                )
        return NEWitness(lasso, profile, per, glob)

    # -- LP backend -------------------------------------------------------------

    def lp_feasible(self, query: ThresholdQuery) -> bool:
        self._check_query(query)
        window = _window(query)
        return any(
            self._lp_solve(window, floors, members, edges, normalized=True) is not None
            for cei, floors in zip(self._ceilings, self._floors)
            for members, edges in cei.polytopes()
        )

    def lp_witness(self, query: ThresholdQuery) -> NEWitness | None:
        self._check_query(query)
        window = _window(query)
        feasible_seen = False
        for cei, floors in zip(self._ceilings, self._floors):
            for members, edges in cei.polytopes():
                point = self._lp_solve(window, floors, members, edges, normalized=True)
                if point is None:
                    continue
                feasible_seen = True
                lasso = self._lp_realize(window, floors, cei.tree, members, edges, point)
                if lasso is None:
                    continue
                w = self._certify(lasso)
                # A payoff is its own weight sum over one step.
                if not _meets(window, (*w.player_payoffs, w.global_payoff), 1):
                    raise SolverLimitError("lp realization drifted out of bounds")
                return w
        if feasible_seen:
            raise SolverLimitError(
                "threshold query is feasible but no witness was realized"
            )
        return None

    def _lp_solve(self, window: list[Row], floors: list[Row], members: set[int],
                  edges: list, normalized: bool):
        """A frequency vertex, or None: of sum 1 when ``normalized``, else
        forced to use every move at least once, solved as ``x = y + 1``."""
        n_vars = len(edges)
        # Every row is scaled by one common L, the lcm of the denominators of
        # the bounds this LP uses: the phase-1 objective is then L times the
        # unscaled one and Bland's rule takes the same pivots to the same
        # vertex.  Scaling each row by its own denominator would reweight the
        # artificial sum and can change the vertex.
        # Per payoff, the ceiling's floor, then the query's lower and upper
        # bound: the LP keeps this order, and Bland's rule follows it.
        rows = sorted([*floors, *window], key=operator.itemgetter(0))
        scale = math.lcm(1, *(abs(q) for _, q, _ in rows))
        cons: list[Constraint] = []
        if normalized:
            cons.append(Constraint((scale,) * n_vars, "==", scale))
        # Flow conservation: each member's moves out balance its moves in.
        cons += [Constraint(tuple(scale * ((src == s) - (cls.succ == s)) for src, cls in edges),
                            "==", 0) for s in sorted(members)]
        # Row (k, sign*q, sign*p) times L: L/q * (sign*q*w - sign*p) >= 0 per move.
        tables = (*self.game.weights, self.game.global_weights)
        for k, q, p in rows:
            cons.append(Constraint(
                tuple(scale // abs(q) * (q * tables[k][src] - p) for src, _ in edges), ">=", 0))
        if normalized:
            return feasible_point(n_vars, cons)
        point = feasible_point(n_vars, [Constraint(c.coeffs, c.rel, c.rhs - sum(c.coeffs))
                                        for c in cons])
        return None if point is None else [x + 1 for x in point]

    def _lp_realize(self, window: list[Row], floors: list[Row], tree: dict[int, tuple],
                    members: set[int], edges: list, point) -> Lasso | None:
        lasso = self._euler_lasso(tree, edges, point)
        if lasso is not None:
            return lasso
        # Vertex support was disconnected: force every sub-arena move to be
        # used at least once, which restores connectivity if still feasible.
        forced = self._lp_solve(window, floors, members, edges, normalized=False)
        if forced is not None:
            lasso = self._euler_lasso(tree, edges, forced)
            if lasso is not None:
                return lasso
        # Bounded fallback: the least in-bounds signature of the sweep.
        rec = next(iter(self._sweep(window)), None)
        return None if rec is None else self.realize(rec)

    def _euler_lasso(self, tree: dict[int, tuple], edges: list, point) -> Lasso | None:
        """Unroll a frequency vertex over ``edges`` into a lasso whose prefix
        follows the ceiling's ``tree``, or None."""
        # Scaled to integers, each edge's frequency is its multiplicity.
        denom = math.lcm(*(x.denominator for x in point))
        # Per source, [class, uses left] in ``edges`` order, which is by
        # (successor, joint action) within a source.
        out: dict[int, list[list]] = {}
        for (src, cls), x in zip(edges, point):
            if x > 0:
                out.setdefault(src, []).append([cls, int(x * denom)])
        total = sum(m for uses in out.values() for _, m in uses)
        if total == 0 or total > LASSO_LENGTH_CAP:
            return None
        # Hierholzer over the multigraph, smallest successor first.  The flow
        # is balanced, so a disconnected support leaves edges off the circuit
        # and fails the length test below.
        start = min(out)
        circuit: list[tuple[int, _MoveClass]] = []
        stack: list[tuple[int, _MoveClass | None]] = [(start, None)]
        while stack:
            s, via = stack[-1]
            for use in out.get(s, ()):
                if use[1]:
                    use[1] -= 1
                    stack.append((use[0].succ, use[0]))
                    break
            else:
                stack.pop()
                if via is not None:
                    circuit.append((s, via))
        if len(circuit) != total:
            return None
        # circuit, reversed, holds (state entered, class used to enter it):
        # the cycle visits ``start`` and then every state entered but the last.
        circuit.reverse()
        lasso = self._lasso(tree, [start] + [s for s, _ in circuit[:-1]],
                            [cls.joint for _, cls in circuit])
        if len(lasso.prefix_states) + total > LASSO_LENGTH_CAP:
            return None
        return lasso


def ne_threshold(game: Game, query: ThresholdQuery, backend: str = "oracle",
                 bound: int = 12) -> NEWitness | None:
    """Equilibrium witness with all payoffs inside the query window, if any.

    ``backend="oracle"`` is exhaustive over lassos of length at most
    ``bound``; ``backend="lp"`` decides cycle-frequency feasibility without
    a length bound and unrolls a frequency vertex into a lasso.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    solver = NashLassoSolver(game, query.fixed_player, bound)
    if backend == "lp":
        return solver.lp_witness(query)
    rec = solver.query_oracle(query)
    return solver.witness(rec) if rec is not None else None

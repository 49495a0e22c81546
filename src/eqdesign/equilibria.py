"""Deciding the equilibrium threshold problem and certifying outcomes.

A lasso is an equilibrium outcome exactly when, at every step, every
player's cycle payoff matches or beats the punishment value of every state
they could unilaterally force instead (deviations reproducing the same
successor are unobservable under state-reading strategies and are ignored).
Grim-trigger profiles realize such lassos with finite memory, which makes
the threshold problem a search over lassos.

Two backends answer threshold queries:

* ``oracle`` - exhaustive over lassos with prefix plus cycle length at most
  a bound.  Cycles are explored by a layered walk over successor states
  with the per-player deviation ceiling fixed up front, so the sweep
  enumerates achievable weight-sum vectors rather than raw walks.  Each
  vector (every player, then the global table) is packed into one int of
  fixed-width signed fields, so a step of the walk is one int addition; a
  closed cycle is decoded once and checked against each ceiling ``p/q`` by
  integer cross-multiplication.  ``realize`` replays the same walk and
  follows a signature's packed sums back to a concrete lasso.
* ``lp`` - unbounded cycle-frequency feasibility: for every deviation
  ceiling and every strongly connected sub-arena, an exact LP over move
  frequencies decides whether a cycle with the requested payoffs exists.
  Its rows are integers: each is multiplied by one common ``L``, the lcm of
  the denominators of the ceilings and query bounds it uses, so the
  fraction-free simplex reaches the vertex of the unscaled rational LP.  A
  frequency vertex is scaled to integers and unrolled into an Euler circuit
  to recover a concrete lasso.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .games import (
    Game,
    InvalidLassoError,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    mean_payoff,
    payoffs,
)
from .simplex import Constraint, feasible_point
from .zerosum import (
    PunishmentResult,
    SolverLimitError,
    best_response_value,
    punishment_values,
    strongly_connected_components,
)

POS_INF = math.inf
NEG_INF = -math.inf

Bound = object  # int, Fraction or +-inf


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
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("infeasible per-player bounds (lower > upper)")
        if self.global_lower > self.global_upper:
            raise ValueError("infeasible global bounds (lower > upper)")


def unconstrained_query(game: Game, fixed_player: int | None = None) -> ThresholdQuery:
    n = game.n_players
    return ThresholdQuery(
        lower=(NEG_INF,) * n, upper=(POS_INF,) * n, fixed_player=fixed_player
    )


@dataclass(frozen=True)
class NEWitness:
    """Certified equilibrium outcome: lasso, grim-trigger profile, payoffs."""

    lasso: Lasso
    profile: StrategyProfile
    player_payoffs: tuple[Fraction, ...]
    global_payoff: Fraction


def _punishments(game: Game, fixed: int | None) -> dict[int, PunishmentResult]:
    return {
        i: punishment_values(game, i)
        for i in range(game.n_players)
        if i != fixed
    }


def is_ne_outcome(game: Game, lasso: Lasso, fixed: int | None = None,
                  pun: Mapping[int, PunishmentResult] | None = None) -> bool:
    """Folk-theorem check: no observable unilateral deviation beats the play."""
    lasso.validate(game)
    if pun is None:
        pun = _punishments(game, fixed)
    mp = [mean_payoff(game.weights[i], lasso) for i in range(game.n_players)]
    for s, joint, _ in lasso.steps():
        for i in range(game.n_players):
            if i == fixed:
                continue
            for dev in game.deviation_successors(s, joint, i):
                if mp[i] < pun[i].values[dev]:
                    return False
    return True


def grim_trigger_profile(game: Game, lasso: Lasso, fixed: int | None = None,
                         pun: Mapping[int, PunishmentResult] | None = None,
                         ) -> StrategyProfile:
    """Finite-memory realization of an equilibrium lasso.

    Everyone follows the lasso; at the first off-path state each player
    switches permanently to the positional punishment of the player who
    could have forced it.  When several players could have, every punisher
    assumes it was the least culprit other than itself, so with two players
    the true deviator always meets its own punishment.  Divergences no
    player explains fall into an inert mode, which certified lassos never
    reach.
    """
    if pun is None:
        pun = _punishments(game, fixed)
    if not is_ne_outcome(game, lasso, fixed, pun):
        raise InvalidLassoError("grim trigger requires an equilibrium lasso")

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

    def next_follow(m: int) -> int:
        pos = n_pre if m == wrap else m
        if pos + 1 < length:
            return pos + 1
        return wrap

    def predecessor(m: int) -> int | None:
        if m == wrap:
            return length - 1
        if m == 0:
            return None
        if m == n_pre and n_pre == 0:
            return None
        return m - 1

    def culprits(m: int, observed: int) -> list[int]:
        prev = predecessor(m)
        if prev is None:
            return []
        ps, pm = states_at[prev], moves_at[prev]
        out = []
        for i in range(game.n_players):
            if i == fixed:
                continue
            for alt in game.protocol[i][ps]:
                if alt == pm[i]:
                    continue
                if game.transitions[(ps, pm[:i] + (alt,) + pm[i + 1:])] == observed:
                    out.append(i)
                    break
        return out

    def mode_for(m: int, observed: int, viewer: int) -> int:
        suspects = [i for i in culprits(m, observed) if i != viewer]
        if not suspects:
            return inert
        return punish_base + punished_players.index(suspects[0])

    strategies = []
    for p in range(game.n_players):
        step_rows = []
        act_rows = []
        for m in range(n_memory):
            step_row = []
            act_row = []
            for s in range(game.n_states):
                if m < punish_base:
                    pos = n_pre if m == wrap else m
                    if s == states_at[pos]:
                        step_row.append(next_follow(m))
                        act_row.append(moves_at[pos][p])
                        continue
                    target = mode_for(m, s, p)
                    step_row.append(target)
                    if target == inert:
                        act_row.append(game.protocol[p][s][0])
                    else:
                        victim = punished_players[target - punish_base]
                        if p == victim:
                            act_row.append(game.protocol[p][s][0])
                        else:
                            act_row.append(pun[victim].coalition[s][p])
                    continue
                step_row.append(m)
                if m == inert:
                    act_row.append(game.protocol[p][s][0])
                else:
                    victim = punished_players[m - punish_base]
                    if p == victim:
                        act_row.append(game.protocol[p][s][0])
                    else:
                        act_row.append(pun[victim].coalition[s][p])
            step_rows.append(tuple(step_row))
            act_rows.append(tuple(act_row))
        strategies.append(
            MealyStrategy(n_memory, 0, tuple(step_rows), tuple(act_rows))
        )
    profile = StrategyProfile(tuple(range(game.n_players)), tuple(strategies))
    profile.validate(game)
    return profile


# ---------------------------------------------------------------------------
# Move classes and deviation ceilings


@dataclass(frozen=True)
class _MoveClass:
    succ: int
    devmax: tuple[Fraction | None, ...]
    joint: tuple[int, ...]


def _ceil_le(a: Fraction | None, b: Fraction | None) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def _vec_le(a: Sequence, b: Sequence) -> bool:
    return all(_ceil_le(x, y) for x, y in zip(a, b))


def _vec_join(a: tuple, b: tuple) -> tuple:
    out = []
    for x, y in zip(a, b):
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(max(x, y))
    return tuple(out)


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


class NashLassoSolver:
    """Threshold queries over one game, one fixed player, one length bound.

    Punishment tables, move classes and the lattice of deviation ceilings
    are computed once; oracle sweeps and LP queries share them.  Instances
    are cheap to build relative to the queries they answer and are meant to
    be reused across a binary search.  ``pun``, when given, holds the
    punishment of every player but ``fixed`` (as :func:`is_ne_outcome`
    takes it), so callers that meet the same arena again need not re-solve.
    """

    def __init__(self, game: Game, fixed: int | None = None, bound: int = 12,
                 ceiling_limit: int = 4096,
                 pun: Mapping[int, PunishmentResult] | None = None):
        if bound < 1:
            raise ValueError("lasso length bound must be positive")
        self.game = game
        self.fixed = fixed
        self.bound = bound
        self.pun = _punishments(game, fixed) if pun is None else pun
        rows = (*game.weights, game.global_weights)
        self._width = _field_width(max(abs(w) for row in rows for w in row), bound)
        self._wpack = [_pack_sums(col, self._width) for col in zip(*rows)]
        self._classes = self._build_classes()
        self._ceilings = self._build_ceilings(ceiling_limit)
        self._sweep_cache: list[tuple] | None = None

    # -- shared structure ---------------------------------------------------

    def _build_classes(self) -> list[list[_MoveClass]]:
        game = self.game
        per_state: list[list[_MoveClass]] = []
        for s in range(game.n_states):
            by_key: dict[tuple, tuple[int, ...]] = {}
            for joint in game.joint_actions(s):
                succ = game.transitions[(s, joint)]
                devmax: list[Fraction | None] = []
                for i in range(game.n_players):
                    if i == self.fixed:
                        devmax.append(None)
                        continue
                    devs = game.deviation_successors(s, joint, i)
                    devmax.append(
                        max(self.pun[i].values[d] for d in devs) if devs else None
                    )
                key = (succ, tuple(devmax))
                if key not in by_key or joint < by_key[key]:
                    by_key[key] = joint
            classes = [
                _MoveClass(succ, devmax, joint)
                for (succ, devmax), joint in sorted(
                    by_key.items(), key=lambda kv: (kv[0][0], kv[1])
                )
            ]
            # Drop classes dominated by a same-successor class with weaker
            # deviation ceilings.
            kept: list[_MoveClass] = []
            for c in classes:
                dominated = any(
                    d.succ == c.succ and d.devmax != c.devmax
                    and _vec_le(d.devmax, c.devmax)
                    for d in classes
                )
                if not dominated:
                    kept.append(c)
            per_state.append(kept)
        return per_state

    def _build_ceilings(self, limit: int) -> list[tuple]:
        bottom = (None,) * self.game.n_players
        seeds = {bottom}
        for classes in self._classes:
            for c in classes:
                seeds.add(c.devmax)
        closed: set[tuple] = set(seeds)
        frontier = list(seeds)
        while frontier:
            v = frontier.pop()
            for u in list(closed):
                j = _vec_join(v, u)
                if j not in closed:
                    closed.add(j)
                    frontier.append(j)
                    if len(closed) > limit:
                        raise SolverLimitError("deviation ceiling lattice too large")

        def sort_key(vec: tuple):
            return tuple(NEG_INF if x is None else x for x in vec)

        return sorted(closed, key=sort_key)

    def _allowed(self, ceiling: tuple) -> list[list[_MoveClass]]:
        return [
            [c for c in classes if _vec_le(c.devmax, ceiling)]
            for classes in self._classes
        ]

    @staticmethod
    def _dists_from(allowed: list[list[_MoveClass]], root: int) -> dict[int, int]:
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for s in frontier:
                for c in allowed[s]:
                    if c.succ not in dist:
                        dist[c.succ] = dist[s] + 1
                        nxt.append(c.succ)
            frontier = nxt
        return dist

    @staticmethod
    def _dists_to(allowed: list[list[_MoveClass]], target: int) -> dict[int, int]:
        """Steps from each state >= ``target`` back to it, over those states."""
        preds: dict[int, set[int]] = {s: set() for s in range(target, len(allowed))}
        for s in preds:
            for c in allowed[s]:
                if c.succ >= target:
                    preds[c.succ].add(s)
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt = []
            for s in frontier:
                for p in preds[s]:
                    if p not in dist:
                        dist[p] = dist[s] + 1
                        nxt.append(p)
            frontier = nxt
        return dist

    # -- oracle sweep ---------------------------------------------------------

    def _sweep(self) -> list[tuple]:
        """All equilibrium cycle signatures within the length bound.

        A signature is ``(ceiling index, anchor state, cycle length, weight
        sums, prefix length)``; the anchor is the least state on the cycle,
        weight sums run over all players plus the global table.  The sweep
        is exhaustive: every equilibrium lasso with prefix + cycle within
        the bound projects onto exactly one signature.
        """
        if self._sweep_cache is not None:
            return self._sweep_cache
        game = self.game
        width, n_sums = self._width, game.n_players + 1
        out: list[tuple] = []
        seen: set[tuple[int, int, int]] = set()
        for ci, ceiling in enumerate(self._ceilings):
            # Cycle payoff sums/length must reach each ceiling p/q.
            floors = [
                (i, c.numerator, c.denominator)
                for i, c in enumerate(ceiling)
                if i != self.fixed and c is not None
            ]
            allowed = self._allowed(ceiling)
            dist = self._dists_from(allowed, game.initial)
            for anchor in sorted(dist):
                budget = self.bound - dist[anchor]
                if budget < 1:
                    continue
                back = self._dists_to(allowed, anchor)
                walk = self._walk(allowed, anchor, budget, back)
                for length, layer in enumerate(walk, 1):
                    for packed in layer.get(anchor, ()):
                        key = (anchor, length, packed)
                        if key in seen:
                            continue
                        sums = _unpack_sums(packed, width, n_sums)
                        if all(sums[i] * q >= p * length for i, p, q in floors):
                            seen.add(key)
                            out.append((ci, anchor, length, sums, dist[anchor]))
        # Designer value sums/length in units of 1/lcm(1..bound): exact ints.
        scale = math.lcm(*range(1, self.bound + 1))
        out.sort(key=lambda rec: (rec[3][-1] * (scale // rec[2]), rec[2], rec[1], rec[3]))
        self._sweep_cache = out
        return out

    def _walk(self, allowed, anchor: int, horizon: int,
              back: dict[int, int]) -> Iterator[dict[int, set[int]]]:
        """Layered reachability of packed weight sums on cycles at ``anchor``.

        Yields, for k = 1, 2, ..., the map from each state to the packed
        weight sums of the k-step walks from ``anchor`` over states >=
        ``anchor`` that can still return to it within ``horizon`` steps;
        the sums at ``anchor`` itself are the cycles of length k.  States
        enter a layer in the order their predecessors are visited, each
        predecessor's successors in class order; ``realize`` relies on it.
        """
        wpack = self._wpack
        succs = {
            s: [(t, back[t]) for t in dict.fromkeys(c.succ for c in allowed[s])
                if t in back]
            for s in back
        }
        layer: dict[int, set[int]] = {anchor: {0}}
        for k in range(1, horizon + 1):
            rem = horizon - k
            nxt: dict[int, set[int]] = {}
            for s, xs in layer.items():
                shifted = None
                for t, d in succs[s]:
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
            yield nxt
            layer = nxt

    @staticmethod
    def _sums_in_bounds(query: ThresholdQuery, sums: tuple[int, ...],
                        length: int) -> bool:
        for i, (lo, hi) in enumerate(zip(query.lower, query.upper)):
            v = Fraction(sums[i], length)
            if v < lo or v > hi:
                return False
        g = Fraction(sums[-1], length)
        return query.global_lower <= g <= query.global_upper

    def global_values(self) -> list[Fraction]:
        """Sorted distinct designer values over all equilibrium signatures."""
        vals = {Fraction(rec[3][-1], rec[2]) for rec in self._sweep()}
        return sorted(vals)

    def has_equilibrium(self) -> bool:
        return bool(self._sweep())

    def query_oracle(self, query: ThresholdQuery) -> tuple | None:
        """Least signature satisfying the query, or None."""
        self._check_query(query)
        for rec in self._sweep():
            if self._sums_in_bounds(query, rec[3], rec[2]):
                return rec
        return None

    def extreme_signature(self, maximize: bool = False) -> tuple | None:
        sweep = self._sweep()
        if not sweep:
            return None
        return sweep[-1] if maximize else sweep[0]

    def signatures(self) -> list[tuple]:
        return list(self._sweep())

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

        Replays the sweep's walk with horizon ``length`` and follows each
        packed sum back to its first parent: the first state of the previous
        layer, in layer order, whose first class into the current state
        carries a sum that explains it.
        """
        ci, anchor, length, sums, _ = rec
        allowed = self._allowed(self._ceilings[ci])
        game = self.game
        back = self._dists_to(allowed, anchor)
        layers = [{anchor: {0}}, *self._walk(allowed, anchor, length, back)]
        packed = _pack_sums(sums, self._width)
        if (_unpack_sums(packed, self._width, game.n_players + 1) != tuple(sums)
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
                cls = next((c for c in allowed[s] if c.succ == cur_state), None)
                if cls is not None:
                    break
            cyc_states.append(s)
            cyc_moves.append(cls.joint)
            cur_state, packed = s, prev
        cyc_states.reverse()
        cyc_moves.reverse()

        prefix_states, prefix_moves = self._shortest_prefix(allowed, anchor)
        lasso = Lasso(
            tuple(prefix_states), tuple(cyc_states),
            tuple(prefix_moves), tuple(cyc_moves),
        )
        lasso.validate(game)
        return lasso

    def _shortest_prefix(self, allowed, target: int):
        game = self.game
        parent: dict[int, tuple[int, _MoveClass] | None] = {game.initial: None}
        frontier = [game.initial]
        while frontier and target not in parent:
            nxt = []
            for s in frontier:
                for cls in allowed[s]:
                    if cls.succ not in parent:
                        parent[cls.succ] = (s, cls)
                        nxt.append(cls.succ)
            frontier = nxt
        if target not in parent:
            raise SolverLimitError("anchor unreachable while rebuilding the prefix")
        states: list[int] = []
        moves: list[tuple[int, ...]] = []
        cur = target
        while parent[cur] is not None:
            prev, cls = parent[cur]
            states.append(prev)
            moves.append(cls.joint)
            cur = prev
        states.reverse()
        moves.reverse()
        return states, moves

    def witness(self, rec: tuple) -> NEWitness:
        lasso = self.realize(rec)
        profile = grim_trigger_profile(self.game, lasso, self.fixed, self.pun)
        per, glob = payoffs(self.game, lasso)
        for i in range(self.game.n_players):
            if i == self.fixed:
                continue
            br = best_response_value(self.game, profile.without(i), i)
            if br > per[i]:
                raise SolverLimitError(
                    "grim profile failed its exact best-response certificate"
                )
        return NEWitness(lasso, profile, per, glob)

    # -- LP backend -------------------------------------------------------------

    def lp_feasible(self, query: ThresholdQuery) -> bool:
        self._check_query(query)
        return self._lp_scan(query, realize=False) is not None

    def lp_witness(self, query: ThresholdQuery) -> NEWitness | None:
        self._check_query(query)
        result = self._lp_scan(query, realize=True)
        if result is None:
            return None
        lasso = result
        if not is_ne_outcome(self.game, lasso, self.fixed, self.pun):
            raise SolverLimitError("lp realization failed the equilibrium check")
        per, glob = payoffs(self.game, lasso)
        in_bounds = all(
            lo <= v <= hi for v, lo, hi in zip(per, query.lower, query.upper)
        ) and query.global_lower <= glob <= query.global_upper
        if not in_bounds:
            raise SolverLimitError("lp realization drifted out of bounds")
        profile = grim_trigger_profile(self.game, lasso, self.fixed, self.pun)
        return NEWitness(lasso, profile, per, glob)

    def _lp_polytopes(self) -> Iterator[tuple]:
        """``(ceiling, allowed, members, edges)`` per ceiling and reachable SCC with moves."""
        for ceiling in self._ceilings:
            allowed = self._allowed(ceiling)
            dist = self._dists_from(allowed, self.game.initial)
            reach = sorted(dist)
            if not reach:
                continue
            pos = {s: k for k, s in enumerate(reach)}
            succs = [
                [pos[c.succ] for c in allowed[s] if c.succ in pos]
                for s in reach
            ]
            comps = strongly_connected_components(succs)
            for comp in sorted(comps, key=min):
                members = {reach[k] for k in comp}
                edges = [
                    (s, cls)
                    for s in sorted(members)
                    for cls in allowed[s]
                    if cls.succ in members
                ]
                if edges:
                    yield ceiling, allowed, members, edges

    def _lp_scan(self, query: ThresholdQuery, realize: bool):
        feasible_seen = False
        for ceiling, allowed, members, edges in self._lp_polytopes():
            point = self._lp_solve(query, ceiling, members, edges,
                                   normalized=True)
            if point is None:
                continue
            feasible_seen = True
            if not realize:
                return True
            lasso = self._lp_realize(query, ceiling, allowed, members,
                                     edges, point)
            if lasso is not None:
                return lasso
        if feasible_seen and realize:
            raise SolverLimitError(
                "threshold query is feasible but no witness was realized"
            )
        return None

    def _lp_solve(self, query: ThresholdQuery, ceiling: tuple,
                  members: set[int], edges: list, normalized: bool):
        game = self.game
        n_vars = len(edges)
        # Every row is scaled by one common L, the lcm of the denominators of
        # the bounds this LP uses: the phase-1 objective is then L times the
        # unscaled one and Bland's rule takes the same pivots to the same
        # vertex.  Scaling each row by its own denominator would reweight the
        # artificial sum and can change the vertex.
        bounds = [ceiling[i] for i in range(game.n_players)
                  if i != self.fixed and ceiling[i] is not None]
        bounds += [b for b in (*query.lower, *query.upper,
                               query.global_lower, query.global_upper)
                   if b not in (NEG_INF, POS_INF)]
        scale = math.lcm(1, *(b.denominator for b in bounds))

        def at_least(targets: list[int], b, sign: int) -> Constraint:
            # sign * (t - b) >= 0, times L.
            c = scale // b.denominator * b.numerator
            return Constraint(tuple(sign * (scale * t - c) for t in targets), ">=", 0)

        cons: list[Constraint] = []
        if normalized:
            cons.append(Constraint((scale,) * n_vars, "==", scale))
        for s in sorted(members):
            row = [0] * n_vars
            for k, (src, cls) in enumerate(edges):
                if src == s:
                    row[k] += scale
                if cls.succ == s:
                    row[k] -= scale
            cons.append(Constraint(tuple(row), "==", 0))
        for i in range(game.n_players):
            targets = [game.weights[i][src] for src, _ in edges]
            if i != self.fixed and ceiling[i] is not None:
                cons.append(at_least(targets, ceiling[i], 1))
            if query.lower[i] != NEG_INF:
                cons.append(at_least(targets, query.lower[i], 1))
            if query.upper[i] != POS_INF:
                cons.append(at_least(targets, query.upper[i], -1))
        gl = [game.global_weights[src] for src, _ in edges]
        if query.global_lower != NEG_INF:
            cons.append(at_least(gl, query.global_lower, 1))
        if query.global_upper != POS_INF:
            cons.append(at_least(gl, query.global_upper, -1))
        lbs = None if normalized else [1] * n_vars
        return feasible_point(n_vars, cons, lbs)

    def _lp_realize(self, query: ThresholdQuery, ceiling: tuple, allowed,
                    members: set[int], edges: list, point,
                    length_cap: int = 4096) -> Lasso | None:
        multi = self._scale_to_integers(point)
        lasso = self._euler_lasso(allowed, edges, multi, length_cap)
        if lasso is not None:
            return lasso
        # Vertex support was disconnected: force every sub-arena move to be
        # used at least once, which restores connectivity if still feasible.
        forced = self._lp_solve(query, ceiling, members, edges, normalized=False)
        if forced is not None:
            multi = self._scale_to_integers(forced)
            lasso = self._euler_lasso(allowed, edges, multi, length_cap)
            if lasso is not None:
                return lasso
        # Bounded fallback: look for any in-bounds signature of the sweep.
        rec = self.query_oracle(query)
        if rec is not None:
            return self.realize(rec)
        return None

    @staticmethod
    def _scale_to_integers(point) -> list[int]:
        denom = 1
        for x in point:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
        return [int(x * denom) for x in point]

    def _euler_lasso(self, allowed, edges: list, multi: list[int],
                     length_cap: int) -> Lasso | None:
        total = sum(multi)
        if total == 0 or total > length_cap:
            return None
        support = [(edges[k], multi[k]) for k in range(len(edges)) if multi[k] > 0]
        nodes = sorted({src for (src, _), _ in support}
                       | {cls.succ for (_, cls), _ in support})
        pos = {s: k for k, s in enumerate(nodes)}
        succs = [[] for _ in nodes]
        for (src, cls), _ in support:
            succs[pos[src]].append(pos[cls.succ])
        comps = strongly_connected_components(succs)
        if len(comps) != 1:
            return None
        # Hierholzer over the multigraph, smallest successor first.
        out_edges: dict[int, list[tuple[int, object, int]]] = {}
        for (src, cls), m in support:
            out_edges.setdefault(src, []).append((cls.succ, cls, m))
        for s in out_edges:
            out_edges[s].sort(key=lambda e: (e[0], e[1].joint))
        remaining = {
            (src, id(cls)): m for (src, cls), m in support
        }
        start = nodes[0]
        circuit: list[tuple[int, object]] = []
        stack: list[tuple[int, object | None]] = [(start, None)]
        while stack:
            s, via = stack[-1]
            advanced = False
            for succ, cls, _ in out_edges.get(s, []):
                key = (s, id(cls))
                if remaining.get(key, 0) > 0:
                    remaining[key] -= 1
                    stack.append((succ, cls))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if via is not None:
                    circuit.append((s, via))
        circuit.reverse()
        if len(circuit) != total:
            return None
        # circuit[k] = (state entered, class used to enter it): rebuild the
        # visited sequence starting from `start`.
        cyc_states = [start] + [s for s, _ in circuit[:-1]]
        cyc_moves = [cls.joint for _, cls in circuit]
        prefix_states, prefix_moves = self._shortest_prefix(allowed, start)
        if len(prefix_states) + len(cyc_states) > max(length_cap, self.bound):
            return None
        lasso = Lasso(tuple(prefix_states), tuple(cyc_states),
                      tuple(prefix_moves), tuple(cyc_moves))
        lasso.validate(self.game)
        return lasso


def ne_threshold(game: Game, query: ThresholdQuery, backend: str = "oracle",
                 bound: int = 12) -> NEWitness | None:
    """Equilibrium witness with all payoffs inside the query window, if any.

    ``backend="oracle"`` is exhaustive over lassos of length at most
    ``bound``; ``backend="lp"`` decides cycle-frequency feasibility without
    a length bound and unrolls a frequency vertex into a lasso.
    """
    solver = NashLassoSolver(game, query.fixed_player, bound)
    if backend == "oracle":
        rec = solver.query_oracle(query)
        return solver.witness(rec) if rec is not None else None
    if backend == "lp":
        return solver.lp_witness(query)
    raise ValueError(f"unknown backend {backend!r}")

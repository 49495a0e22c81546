"""Fraction-tableau simplex and LP rows: the reference the integer LP is tested against.

``fraction_feasible_point`` is a phase-1 Bland simplex on a ``Fraction``
tableau with explicit artificial columns; ``fraction_lp_rows`` builds the
cycle-frequency rows of a solver's LP with ``Fraction`` entries, one row
per flow, ceiling and query bound, without any common scaling.  Together
they give the vertex the integer pivoting must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from eqdesign.equilibria import NEG_INF, POS_INF, NashLassoSolver, ThresholdQuery
from eqdesign.simplex import Constraint

from ceiling_oracle import ceiling_values


def fraction_feasible_point(n_vars: int, constraints: Sequence[Constraint],
                            lower_bounds: Sequence | None = None) -> list[Fraction] | None:
    lbs = list(lower_bounds) if lower_bounds is not None else [Fraction(0)] * n_vars
    if len(lbs) != n_vars:
        raise ValueError("one lower bound per variable required")

    # Substitute x = y + lb with y >= 0.
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    for c in constraints:
        if len(c.coeffs) != n_vars:
            raise ValueError("constraint arity mismatch")
        shift = sum(a * lb for a, lb in zip(c.coeffs, lbs))
        rows.append([Fraction(a) for a in c.coeffs])
        rels.append(c.rel)
        rhss.append(Fraction(c.rhs) - shift)

    # Slack form: one slack per inequality.
    n_slack = sum(1 for r in rels if r != "==")
    width = n_vars + n_slack
    table: list[list[Fraction]] = []
    si = 0
    for row, rel, rhs in zip(rows, rels, rhss):
        full = row + [Fraction(0)] * n_slack
        if rel == "<=":
            full[n_vars + si] = Fraction(1)
            si += 1
        elif rel == ">=":
            full[n_vars + si] = Fraction(-1)
            si += 1
        elif rel != "==":
            raise ValueError(f"unknown relation {rel!r}")
        if rhs < 0:
            full = [-a for a in full]
            rhs = -rhs
        table.append(full + [rhs])

    m = len(table)
    # Phase 1: artificial basis, minimise the artificial sum.
    for i in range(m):
        for j in range(m):
            table[i].insert(width + j, Fraction(1 if i == j else 0))
    total = width + m
    basis = list(range(width, width + m))
    # Objective row: sum of artificial rows (to be driven to zero).
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            obj[j] += table[i][j]

    def pivot(row: int, col: int) -> None:
        piv = table[row][col]
        table[row] = [a / piv for a in table[row]]
        for r in range(m):
            if r != row and table[r][col] != 0:
                f = table[r][col]
                table[r] = [a - f * b for a, b in zip(table[r], table[row])]
        if obj[col] != 0:
            f = obj[col]
            for j in range(total + 1):
                obj[j] -= f * table[row][j]

    while True:
        col = next((j for j in range(width) if obj[j] > 0), None)
        if col is None:
            break
        best_row, best_ratio = None, None
        for r in range(m):
            if table[r][col] > 0:
                ratio = table[r][total] / table[r][col]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_row]
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            break
        basis[best_row] = col
        pivot(best_row, col)

    if obj[total] != 0:
        return None
    # Drive leftover artificials out of the basis where possible.
    for r in range(m):
        if basis[r] >= width and table[r][total] == 0:
            col = next((j for j in range(width) if table[r][j] != 0), None)
            if col is not None:
                basis[r] = col
                pivot(r, col)
    point = [Fraction(0)] * n_vars
    for r, b in enumerate(basis):
        if b < n_vars:
            point[b] = table[r][total]
    return [p + lb for p, lb in zip(point, lbs)]


def fraction_lp_rows(solver: NashLassoSolver, query: ThresholdQuery,
                     ceiling: tuple, members: set[int], edges: list,
                     normalized: bool) -> tuple[int, list[Constraint], list | None]:
    """The cycle-frequency LP of ``solver._lp_solve`` with unscaled ``Fraction`` rows."""
    game = solver.game
    n_vars = len(edges)
    cons: list[Constraint] = []
    if normalized:
        cons.append(Constraint((Fraction(1),) * n_vars, "==", Fraction(1)))
    for s in sorted(members):
        row = [Fraction(0)] * n_vars
        for k, (src, cls) in enumerate(edges):
            if src == s:
                row[k] += 1
            if cls.succ == s:
                row[k] -= 1
        cons.append(Constraint(tuple(row), "==", Fraction(0)))
    values = ceiling_values(solver, ceiling)
    for i in range(game.n_players):
        targets = [Fraction(game.weights[i][src]) for src, _ in edges]
        if i != solver.fixed and values[i] is not None:
            cons.append(Constraint(
                tuple(t - values[i] for t in targets), ">=", Fraction(0)
            ))
        if query.lower[i] != NEG_INF:
            cons.append(Constraint(
                tuple(t - query.lower[i] for t in targets), ">=", Fraction(0)
            ))
        if query.upper[i] != POS_INF:
            cons.append(Constraint(
                tuple(query.upper[i] - t for t in targets), ">=", Fraction(0)
            ))
    gl = [Fraction(game.global_weights[src]) for src, _ in edges]
    if query.global_lower != NEG_INF:
        cons.append(Constraint(
            tuple(t - query.global_lower for t in gl), ">=", Fraction(0)
        ))
    if query.global_upper != POS_INF:
        cons.append(Constraint(
            tuple(query.global_upper - t for t in gl), ">=", Fraction(0)
        ))
    lbs = None if normalized else [Fraction(1)] * n_vars
    return n_vars, cons, lbs

"""Exact feasibility solver for small integer-row LPs in nonnegative variables.

Phase-1 simplex with Bland's rule on an integer tableau, fraction-free as
in Bareiss ("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968) but with each row reduced by its own gcd
instead of divided by the previous pivot: a pivot replaces every other row
by ``p*row - f*pivot_row`` over that gcd, so each row stays a positive
multiple of the row a rational tableau would hold and every sign test,
ratio test and tie-break decides as it would there.  Ratios are
compared by cross-multiplication.  No scaling, no tolerances, termination
guaranteed.  Phase 1 is the whole solver: once the artificial sum is 0 the
vertex is read off the basis, the only place fractions appear.  An artificial
still basic there holds a row with right-hand side 0 and sets no coordinate;
an objective phase must pivot it out first, tested by a case that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int, ...]
    rel: str  # "==", "<=" or ">="
    rhs: int


def _pivot(table: list[list[int]], r: int, col: int) -> None:
    """Eliminate ``col`` from every row but ``r``, given ``table[r][col] > 0``."""
    prow = table[r]
    p = prow[col]
    for i, row in enumerate(table):
        f = row[col]
        if f and i != r:
            row = [p * a - f * b for a, b in zip(row, prow)]
            g = math.gcd(*row)
            table[i] = [a // g for a in row] if g > 1 else row


def feasible_point(n_vars: int, constraints: Sequence[Constraint]) -> list[Fraction] | None:
    """A rational point satisfying all constraints, or None if infeasible.

    Coefficients and right-hand sides must be ``int``; any other type,
    ``bool`` included, raises :class:`ValueError` naming the constraint.
    Variables are nonnegative and unbounded above; a caller wanting
    ``x >= lb`` substitutes ``x = y + lb`` into its rows.  The returned point
    is a basic feasible solution of the slack form, so its support is as
    small as the constraint system allows.
    """
    # Slack form: one slack per inequality, every right-hand side nonnegative.
    n_slack = sum(1 for c in constraints if c.rel != "==")
    width = n_vars + n_slack
    table: list[list[int]] = []
    si = n_vars
    for k, c in enumerate(constraints):
        if len(c.coeffs) != n_vars:
            raise ValueError(f"constraint {k}: arity mismatch")
        if any(type(a) is not int for a in c.coeffs) or type(c.rhs) is not int:
            raise ValueError(
                f"constraint {k}: coefficients and right-hand side must be ints"
            )
        row = list(c.coeffs) + [0] * n_slack + [c.rhs]
        if c.rel in ("<=", ">="):
            row[si] = 1 if c.rel == "<=" else -1
            si += 1
        elif c.rel != "==":
            raise ValueError(f"constraint {k}: unknown relation {c.rel!r}")
        table.append([-a for a in row] if c.rhs < 0 else row)

    # Phase 1 from an artificial basis, minimising the artificial sum.  The
    # artificial columns are never read, so only their basis indices exist.
    # The objective row (sum of the rows) goes last and pivots like a row.
    # The sum is bounded below by 0, so a column lowering it has a positive entry.
    m = len(table)
    basis = list(range(width, width + m))
    table.append([sum(row[j] for row in table) for j in range(width + 1)])

    while True:
        obj = table[m]
        col = next((j for j in range(width) if obj[j] > 0), None)
        if col is None:
            break
        best = None
        for r in range(m):
            a = table[r][col]
            if a > 0:
                if best is None:
                    best = r
                    continue
                # rhs_r / a against rhs_best / a_best, both denominators > 0.
                here = table[r][width] * table[best][col]
                there = table[best][width] * a
                if here < there or (here == there and basis[r] < basis[best]):
                    best = r
        basis[best] = col
        _pivot(table, best, col)

    if table[m][width] != 0:
        return None
    point = [Fraction(0)] * n_vars
    for r, b in enumerate(basis):
        if b < n_vars:
            point[b] = Fraction(table[r][width], table[r][b])
    return point

"""Integer phase-1 simplex against the Fraction-tableau oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign.benchmarks import gen_random_game
from eqdesign.equilibria import NEG_INF, POS_INF, NashLassoSolver, ThresholdQuery, _window
from eqdesign.simplex import Constraint, feasible_point

from simplex_oracle import fraction_feasible_point, fraction_lp_rows


def satisfies(point, constraints, lbs) -> bool:
    for c in constraints:
        lhs = sum(a * x for a, x in zip(c.coeffs, point))
        ok = {"==": lhs == c.rhs, "<=": lhs <= c.rhs, ">=": lhs >= c.rhs}[c.rel]
        if not ok:
            return False
    return all(x >= lb for x, lb in zip(point, lbs))


@st.composite
def integer_lps(draw):
    n_vars = draw(st.integers(0, 4))
    small = st.integers(-3, 3)
    constraints = draw(st.lists(
        st.builds(Constraint,
                  st.lists(small, min_size=n_vars, max_size=n_vars).map(tuple),
                  st.sampled_from(["==", "<=", ">="]),
                  st.integers(-5, 5)),
        max_size=6))
    lbs = draw(st.none() | st.lists(st.integers(-2, 2), min_size=n_vars,
                                    max_size=n_vars))
    return n_vars, constraints, lbs


def bounded_feasible_point(n_vars, constraints, lbs):
    """``feasible_point`` under ``x >= lbs`` (default 0): it solves for
    ``y = x - lb >= 0`` and adds ``lb`` back."""
    lbs = lbs or [0] * n_vars
    point = feasible_point(n_vars, [
        Constraint(c.coeffs, c.rel, c.rhs - sum(a * lb for a, lb in zip(c.coeffs, lbs)))
        for c in constraints])
    return None if point is None else [x + lb for x, lb in zip(point, lbs)]


def check_against_oracle(n_vars, constraints, lbs):
    point = bounded_feasible_point(n_vars, constraints, lbs)
    assert point == fraction_feasible_point(n_vars, constraints, lbs)
    if point is not None:
        assert all(type(x) is Fraction for x in point)
        assert satisfies(point, constraints, lbs or [0] * n_vars)
    return point


class TestFeasiblePoint:
    @settings(deadline=None, max_examples=400)
    @given(integer_lps(), st.integers(1, 12))
    def test_matches_fraction_oracle(self, lp, scale):
        n_vars, constraints, lbs = lp
        point = check_against_oracle(n_vars, constraints, lbs)
        # One common positive scale leaves the pivots and the vertex alone.
        scaled = [Constraint(tuple(scale * a for a in c.coeffs), c.rel, scale * c.rhs)
                  for c in constraints]
        assert bounded_feasible_point(n_vars, scaled, lbs) == point

    @pytest.mark.parametrize("n_vars,constraints,lbs,expected", [
        (2, [], None, [0, 0]),
        (0, [], None, []),
        (0, [Constraint((), "<=", -1)], None, None),
        (0, [Constraint((), "==", 0)], None, []),
        (2, [], [3, -1], [3, -1]),
        (1, [Constraint((1,), ">=", 2), Constraint((1,), "<=", 1)], None, None),
        (2, [Constraint((1, 1), "==", -2)], None, None),
        (2, [Constraint((1, 1), "==", -2)], [-3, 0], [-2, 0]),
        (1, [Constraint((-2,), "<=", -3)], None, [Fraction(3, 2)]),
        (2, [Constraint((1, -1), "==", 0), Constraint((1, 1), "==", 0)], None, [0, 0]),
        # A repeated equality row: phase 1 ends with an artificial basic at 0.
        (3, [Constraint((1, 1, 1), "==", 2), Constraint((1, 1, 1), "==", 2),
             Constraint((1, -1, 0), "<=", 1)], None, [Fraction(3, 2), Fraction(1, 2), 0]),
        # An artificial left basic at 0 on a nonzero row, which the oracle
        # pivots out without moving the vertex.
        (2, [Constraint((-1, -2), "==", -1), Constraint((2, 2), "==", 2)], None, [1, 0]),
    ])
    def test_edge_cases(self, n_vars, constraints, lbs, expected):
        point = check_against_oracle(n_vars, constraints, lbs)
        assert point == expected

    def test_degenerate_ratio_ties(self):
        # Every row ties in the first ratio test; Bland picks the least basic index.
        constraints = [Constraint((1, 1, 0), "<=", 2), Constraint((2, 0, 1), "==", 4),
                       Constraint((1, 0, 0), ">=", 2), Constraint((3, 1, 1), "==", 6)]
        assert check_against_oracle(3, constraints, None) == [2, 0, 0]

    @pytest.mark.parametrize("bad", [0.5, True, Fraction(1, 2), Fraction(2)])
    @pytest.mark.parametrize("where", ["coeff", "rhs"])
    def test_refuses_non_int_rows(self, bad, where):
        ok = Constraint((1, 1), "<=", 3)
        bad_row = (Constraint((1, bad), "<=", 3) if where == "coeff"
                   else Constraint((1, 1), "<=", bad))
        with pytest.raises(ValueError, match="constraint 1:"):
            feasible_point(2, [ok, bad_row])

    def test_refuses_unknown_relation_and_arity(self):
        with pytest.raises(ValueError, match="constraint 0: unknown relation"):
            feasible_point(1, [Constraint((1,), "<", 3)])
        with pytest.raises(ValueError, match="constraint 0: arity"):
            feasible_point(2, [Constraint((1,), "<=", 3)])


window_bounds = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def windows(draw):
    kind = draw(st.sampled_from(["free", "below", "above", "interval"]))
    if kind == "free":
        return NEG_INF, POS_INF
    a = draw(window_bounds)
    if kind == "below":
        return NEG_INF, a
    if kind == "above":
        return a, POS_INF
    return a, a + draw(st.builds(Fraction, st.integers(0, 4), st.integers(1, 4)))


def check_lp_rows(seed, n_players, n_states, fixed, per_player, gl, gu):
    game = gen_random_game(seed, n_players=n_players, n_states=n_states)
    query = ThresholdQuery(tuple(lo for lo, _ in per_player),
                           tuple(hi for _, hi in per_player), gl, gu, fixed)
    solver = NashLassoSolver(game, fixed, bound=4)
    for cei, floors in zip(solver._ceilings, solver._floors):
        for members, edges in cei.polytopes():
            for normalized in (True, False):
                got = solver._lp_solve(_window(query), floors, members, edges, normalized)
                want = fraction_feasible_point(*fraction_lp_rows(
                    solver, query, cei.ranks, members, edges, normalized))
                assert got == want


F, FREE = Fraction, (NEG_INF, POS_INF)


class TestLpRows:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 4),
           st.sampled_from([None, 0]), st.data())
    def test_lp_solve_vertex_matches_fraction_rows(self, seed, n_players, n_states,
                                                   fixed, data):
        per_player = [data.draw(windows()) for _ in range(n_players)]
        gl, gu = data.draw(windows())
        check_lp_rows(seed, n_players, n_states, fixed, per_player, gl, gu)

    # Scaling each row by its own denominator, instead of all rows by one L,
    # reached a different vertex on each of these.
    @pytest.mark.parametrize("seed,n_players,n_states,fixed,per_player,gl,gu", [
        (561787, 3, 3, None, [(F(-4), POS_INF), FREE, (NEG_INF, F(-1, 2))], 0, F(2, 3)),
        (855274, 2, 4, 0, [(NEG_INF, F(-1, 4)), (NEG_INF, F(0))], 1, F(5, 3)),
        (840474, 2, 4, None, [FREE, FREE], -1, POS_INF),
    ])
    def test_common_scale_regressions(self, seed, n_players, n_states, fixed,
                                      per_player, gl, gu):
        check_lp_rows(seed, n_players, n_states, fixed, per_player, gl, gu)

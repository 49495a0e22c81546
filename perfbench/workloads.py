"""The three seeded workloads: inputs, the fixed op list, and answer checks.

Each ``setup_*`` function draws its inputs from the workload seed, writes
any fixture files, and returns the op list of one pass.  An op is a call
into the program (looked up through the ``eqdesign`` module at call time,
so the traced run sees it) and a check of its answer against
``reference`` or against the paper's published values.  Checks run after
the pass, outside the timed region; ``check`` returns ``None`` when the
answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    # (answer, answers of this pass by op name, counters of this pass) -> problem
    check: Callable[[object, dict, dict], str | None]


# -- hamiltonian ----------------------------------------------------------------

# The criterion-5 graphs: a directed 3-cycle (Hamiltonian) and a fork (not).
WITH_CYCLE = (("v1", "v2"), ("v2", "v3"), ("v3", "v1"))
WITHOUT_CYCLE = (("v1", "v2"), ("v1", "v3"))
HAM_BUDGET = 1
HAM_DELTA = Fraction(1, 2)
HAM_EPSILON = Fraction(1)


def _fresh_names(rng: random.Random, n: int) -> tuple[str, ...]:
    """``n`` vertex names drawn from the seed, sorted.

    Names keep the original vertex order: the solvers visit states in name
    order, so a permutation would reorder the certify loop's candidates and
    make the work depend on the seed.  Renamed in order, the criterion-5
    decisions make the same number of calls for every seed.
    """
    return tuple(f"c{k}" for k in sorted(rng.sample(range(10, 100), n)))


def _relabel(rng: random.Random, edges):
    names = _fresh_names(rng, 3)
    rename = dict(zip(("v1", "v2", "v3"), names))
    return names, tuple((rename[u], rename[v]) for u, v in edges)


def setup_hamiltonian(eq, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"hamiltonian-{seed}")
    ops = []
    for mode, make in (("strong", eq.benchmarks.gen_hamiltonian_game),
                       ("weak", eq.benchmarks.gen_hamiltonian_complement_game)):
        query = eq.design.ImprovementQuery(
            budget=HAM_BUDGET, delta=HAM_DELTA, epsilon=HAM_EPSILON,
            mode=mode, method="certify")
        for edges in (WITH_CYCLE, WITHOUT_CYCLE):
            vertices, renamed = _relabel(rng, edges)
            game = make(eq.benchmarks.CostDigraph(vertices, renamed))
            # Strong improvement is possible exactly when a fair tour exists;
            # the complement construction flips the weak answer.
            expected = reference.has_hamiltonian_cycle(vertices, renamed) == (mode == "strong")
            ops.append(Op(
                f"{mode}-{'yes' if expected else 'no'}",
                lambda game=game, query=query: eq.design.decide_improvement(game, query),
                lambda ans, done, tally, eq=eq, game=game, expected=expected, mode=mode:
                    _check_improvement(eq, game, mode, expected, ans),
            ))
    return ops


def _check_improvement(eq, game, mode, expected, ans):
    if ans.decision != expected:
        return f"decision {ans.decision}, expected {expected}"
    if not expected:
        return None
    rm = ans.witness_rm
    if rm is None:
        return "yes without a witness machine"
    if any(sum(vec) > HAM_BUDGET or min(vec) < 0 for row in rm.rewards for vec in row):
        return "witness machine exceeds the budget"
    product = eq.rewards.implement(game, rm)
    extreme = (eq.design.exact_worst_ne if mode == "strong" else eq.design.exact_best_ne)(product)
    if extreme is None:
        return "product has no equilibrium"
    problem = reference.certify_equilibrium(product, extreme)
    if problem:
        return f"product extreme: {problem}"
    if not extreme.global_payoff > ans.baseline_value + HAM_DELTA:
        return (f"product extreme {extreme.global_payoff} does not clear "
                f"baseline {ans.baseline_value} + {HAM_DELTA}")
    return None


# -- cli-tour -------------------------------------------------------------------

TOUR_EPSILON = Fraction(1, 16)
# Tour costs are one constant draw per size and the seed renames the
# cities: with seeded costs the sweeps of one size took 1.0-1.5 s and the
# LP searches 0.8-2.1 s, which moved op_p50_ms by 11% from seed to seed.
# The 5-city LP worst-value search (8-15 s) is left out: one such op would
# be most of a pass and could not be repeated within a run.
TOUR_CITIES = (3, 4, 5)
# The running example's worst equilibrium values: the game, then its
# products with the two delivery machines (the paper's numbers).
EXAMPLE_WORST = (Fraction(0), Fraction(2, 3), Fraction(5, 6))


def _cli(eq, *argv):
    out = io.StringIO()
    code = eq.cli.cli_main([str(a) for a in argv], out)
    return code, out.getvalue()


def _doc(ans):
    code, text = ans
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text.strip().splitlines()[-1])


def _value(ans) -> Fraction:
    return Fraction(_doc(ans)["value"])


def setup_cli_tour(eq, seed: int, workdir: Path) -> list[Op]:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = random.Random(f"cli-tour-{seed}")
    eps = TOUR_EPSILON
    ex = workdir / "example1.game"
    m1, m2 = workdir / "example1_m1.rm", workdir / "example1_m2.rm"
    synth = workdir / "witness.rm"

    def cli_op(name, argv, check):
        return Op(name, lambda: _cli(eq, *argv), check)

    def check_example_worst(ans, done, tally):
        v = _value(ans)
        return None if v - eps <= EXAMPLE_WORST[0] <= v else f"worst {v} misses 0"

    def check_example_best(ans, done, tally):
        v = _value(ans)
        exact = Fraction(_doc(done["verify-m1"])["game_best_ne"])
        return None if v <= exact <= v + eps else f"best {v} misses exact {exact}"

    def check_verify(k):
        def check(ans, done, tally):
            doc = _doc(ans)
            got = (Fraction(doc["game_worst_ne"]), Fraction(doc["product_worst_ne"]))
            want = (EXAMPLE_WORST[0], EXAMPLE_WORST[k])
            if got != want or doc["within_budget"] is not True:
                return f"verify m{k}: {got} within_budget={doc['within_budget']}, want {want}"
            return None
        return check

    def check_fixed0(budget):
        def check(ans, done, tally):
            # Global weights of the example lie in 0..2 and the designer pays
            # at most the budget per step.
            v = _value(ans)
            return None if -budget - eps <= v <= 2 + eps else f"fixed0 value {v} out of range"
        return check

    def check_synth(ans, done, tally):
        code, _ = ans
        if code != 0:
            return f"synth exit code {code}"
        doc = json.loads(synth.read_text())
        vecs = [vec for row in doc["rewards"].values() for vec in row.values()]
        if any(sum(vec) > 1 or min(vec) < 0 for vec in vecs):
            return "synthesized machine exceeds budget 1"
        return None

    def check_synth_verify(ans, done, tally):
        doc = _doc(ans)
        gain = Fraction(doc["product_worst_ne"]) - Fraction(doc["game_worst_ne"])
        if doc["within_budget"] is not True or not gain > Fraction(1, 2):
            return f"synthesized machine re-verifies with gain {gain}"
        return None

    ops = [
        cli_op("gen-example1", ["gen", "example1", "--dest", workdir],
               lambda ans, done, tally: None if ans[0] == 0 and ex.exists() else "gen failed"),
        cli_op("verify-m1", ["verify", ex, m1, "--budget", 1], check_verify(1)),
        cli_op("verify-m2", ["verify", ex, m2, "--budget", 1], check_verify(2)),
        cli_op("example-worst", ["compute", "--worst", "--epsilon", eps, ex], check_example_worst),
        cli_op("example-best", ["compute", "--best", "--epsilon", eps, ex], check_example_best),
    ]
    for budget in (1, 2, 3):
        ops.append(cli_op(
            f"example-fixed0-b{budget}",
            ["compute", "--worst", "--fixed0", "--budget", budget, "--epsilon", eps, ex],
            check_fixed0(budget)))
    ops.append(cli_op(
        "synth", ["synth", "--mode", "strong", "--budget", 1, "--delta", "1/2",
                  "--epsilon", "1/10", "--out", synth, ex], check_synth))
    ops.append(cli_op("verify-synth", ["verify", ex, synth, "--budget", 1], check_synth_verify))

    for n in TOUR_CITIES:
        vertices = _fresh_names(rng, n)
        edges = tuple((u, v) for u in vertices for v in vertices if u != v)
        cost_rng = random.Random(f"cli-tour-tsp{n}")
        costs = {e: cost_rng.randint(1, 9) for e in edges}
        graph = eq.benchmarks.CostDigraph(vertices, edges, tuple(sorted(costs.items())))
        game = eq.benchmarks.gen_tsp_game(graph)
        path = workdir / f"tsp{n}.game"
        path.write_text(eq.fileio.serialize_game(game))
        opt = reference.optimal_tour_cost(vertices, costs)
        ops += _tour_ops(eq, f"tsp{n}", game, path, opt, cli_op)
    return ops


def _tour_ops(eq, tag, game, path, opt, cli_op):
    eps = TOUR_EPSILON

    def check_worst(ans, done, tally):
        v = _value(ans)
        return None if v <= opt + eps else f"worst {v} above optimal tour {opt} + eps"

    def check_best(ans, done, tally):
        v = _value(ans)
        worst = _value(done[f"{tag}-worst"])
        return None if v >= worst - eps else f"best {v} below worst {worst}"

    def check_lp(maximize):
        def check(ans, done, tally):
            oracle = _value(done[f"{tag}-{'best' if maximize else 'worst'}"])
            # The LP has no lasso-length bound, so it may only see further.
            if ans != oracle:
                tally["bound_binding"] = tally.get("bound_binding", 0) + 1
            ok = ans >= oracle if maximize else ans <= oracle
            return None if ok else f"lp {ans} on the wrong side of oracle {oracle}"
        return check

    def check_exact(ans, done, tally):
        if ans is None:
            return "no equilibrium witness"
        problem = reference.certify_equilibrium(game, ans)
        if problem:
            return problem
        worst = _value(done[f"{tag}-worst"])
        g = ans.global_payoff
        return None if worst - eps <= g <= worst else f"exact worst {g} outside ({worst - eps}, {worst}]"

    return [
        cli_op(f"{tag}-worst", ["compute", "--worst", "--epsilon", eps, path], check_worst),
        cli_op(f"{tag}-best", ["compute", "--best", "--epsilon", eps, path], check_best),
        *([] if tag == "tsp5" else [Op(
            f"{tag}-lp-worst",
            lambda: eq.design.epsilon_worst_ne(game, eps, backend="lp"), check_lp(False))]),
        Op(f"{tag}-lp-best",
           lambda: eq.design.epsilon_best_ne(game, eps, backend="lp"), check_lp(True)),
        Op(f"{tag}-exact-worst", lambda: eq.design.exact_worst_ne(game), check_exact),
    ]


# -- threshold-stream -------------------------------------------------------------

# Every pass holds the same number of games of each size, so the seed
# does not change the mix of sizes, which sets most of a pass's cost.  The
# sizes are criterion 6's: two players, 2-4 states.  With an odd number of
# sizes the median op lies inside the middle size, not on the edge between
# two.  The games are one constant draw and the seed draws the queries:
# with seeded games and 640 per size, op_p90_ms spread 10% (quartile
# distance over median) across ten seeds, against 3% for one seed run six
# times.  Constant games with 1,280 per size brought ten seeds to 4%.
#
# Three players are left out.  With three, the program's answers are not
# yet sound (ROADMAP.md, open item on three or more players): about 6% of
# the ops were refused by the grim-trigger certificate, and on some seeds
# ``lp_witness`` returned a lasso that is not an equilibrium.
STREAM_SIZES = tuple((2, states) for states in (2, 3, 4))
STREAM_OPS = 1280 * len(STREAM_SIZES)


def setup_threshold_stream(eq, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"threshold-stream-{seed}")
    game_rng = random.Random("threshold-stream-games")
    neg, pos = eq.equilibria.NEG_INF, eq.equilibria.POS_INF

    def window():
        # Criterion 6's query shapes: half-lines and short intervals.
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        style = rng.random()
        if style < 0.4:
            return neg, c
        if style < 0.8:
            return c, pos
        return c, c + rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])

    ops = []
    for k in range(STREAM_OPS):
        n_players, n_states = STREAM_SIZES[k % len(STREAM_SIZES)]
        game = eq.benchmarks.gen_random_game(
            seed=game_rng.randrange(10**9), n_players=n_players,
            n_states=n_states, n_actions=2, weight_range=(-2, 2))
        gl, gu = window()
        lows, highs = [], []
        for _ in range(n_players):
            lo, hi = window() if rng.random() < 0.25 else (neg, pos)
            lows.append(lo)
            highs.append(hi)
        query = eq.equilibria.ThresholdQuery(tuple(lows), tuple(highs), gl, gu)
        ops.append(Op(
            f"q{k}",
            lambda game=game, query=query: _answer_threshold(eq, game, query),
            lambda ans, done, tally, game=game, query=query:
                _check_threshold(game, query, ans, tally),
        ))
    return ops


def _answer_threshold(eq, game, query):
    # An LP-only yes gets no witness: realizing one as a lasso is best
    # effort in the program (``lp_witness`` raises ``SolverLimitError`` when
    # the feasible point has no lasso), and about 1 in 1,300 two-player
    # queries ends that way.
    solver = eq.equilibria.NashLassoSolver(game, None, bound=12)
    rec = solver.query_oracle(query)
    lp_yes = solver.lp_feasible(query)
    witness = solver.witness(rec) if rec is not None else None
    return rec is not None, lp_yes, witness


def _check_threshold(game, query, ans, tally):
    oracle_yes, lp_yes, witness = ans
    if oracle_yes and not lp_yes:
        return "oracle yes but LP no"
    if lp_yes and not oracle_yes:
        tally["bound_binding"] = tally.get("bound_binding", 0) + 1
    if not oracle_yes:
        return None
    if witness is None:
        return "yes without a witness"
    problem = reference.certify_equilibrium(game, witness)
    if problem:
        return problem
    inside = all(
        lo <= v <= hi for v, lo, hi in zip(witness.player_payoffs, query.lower, query.upper)
    ) and query.global_lower <= witness.global_payoff <= query.global_upper
    return None if inside else "witness payoffs outside the query window"


WORKLOADS = {
    "hamiltonian": setup_hamiltonian,
    "cli-tour": setup_cli_tour,
    "threshold-stream": setup_threshold_stream,
}

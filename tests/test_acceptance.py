"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance (exact equality unless
an epsilon is part of the statement) and against its stated time budget.
"""

import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

from eqdesign.auxiliary import build_auxiliary, lift_strategy, rm_to_strategy
from eqdesign.benchmarks import (
    CostDigraph,
    complete_digraph,
    gen_example1,
    gen_hamiltonian_complement_game,
    gen_hamiltonian_game,
    gen_infinite_memory_example,
    gen_random_game,
    gen_random_rm,
    gen_random_strategy,
    gen_tsp_game,
)
from eqdesign.cli import cli_main
from eqdesign.design import (
    ImprovementQuery,
    algorithm_trace,
    decide_improvement,
    epsilon_worst_ne,
    exact_best_ne,
    exact_worst_ne,
)
from eqdesign.equilibria import (
    NEG_INF,
    POS_INF,
    NashLassoSolver,
    ThresholdQuery,
    is_ne_outcome,
)
from eqdesign.games import StrategyProfile, payoffs, run_profile
from eqdesign.rewards import implement, is_beta_rm, k_cycle_delivery_rm
from eqdesign.zerosum import best_response_value

from lasso_walks import lasso_from_states


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    text = out.getvalue()
    doc = json.loads(text[text.index("{"):]) if "{" in text else None
    return code, doc


def test_criterion_1_example1_triple(tmp_path):
    """Exact worst values 0, 2/3, 5/6 through the verify command."""
    code, _ = run_cli(["gen", "example1", "--dest", str(tmp_path)])
    assert code == 0
    game_path = str(tmp_path / "example1.game")
    results = {}
    budgets_ok = True
    for rm_name, key in [("example1_m1.rm", "m1"), ("example1_m2.rm", "m2")]:
        start = time.monotonic()
        code, doc = run_cli(["verify", game_path, str(tmp_path / rm_name)])
        elapsed = time.monotonic() - start
        budgets_ok &= elapsed < 1.0
        assert code == 0
        results[key] = (doc["game_worst_ne"], doc["product_worst_ne"], elapsed)
    ok = (
        results["m1"][0] == "0"
        and results["m1"][1] == "2/3"
        and results["m2"][1] == "5/6"
        and budgets_ok
    )
    report(1, ok, f"worst values (game, +m1, +m2) = "
                  f"(0, {results['m1'][1]}, {results['m2'][1]}), "
                  f"each verify < 1 s: {budgets_ok}")


def test_criterion_2_strong_improvement_example1():
    """Strong improvement with budget 1, delta 1/2, epsilon 1/10, certify."""
    game, _, _ = gen_example1()
    start = time.monotonic()
    query = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1, 10),
                             mode="strong", method="certify")
    answer = decide_improvement(game, query)
    rm = answer.witness_rm
    reverified = None
    if answer.decision and rm is not None and is_beta_rm(rm, 1):
        product = implement(game, rm)
        reverified = epsilon_worst_ne(product, Fraction(1, 10))
    elapsed = time.monotonic() - start
    ok = (
        answer.decision
        and reverified is not None
        and reverified >= Fraction(2, 3) - Fraction(1, 10)
        and elapsed < 5.0
    )
    report(2, ok, f"decision yes, re-verified worst {reverified} >= 2/3 - 1/10, "
                  f"{elapsed:.2f} s")


def test_criterion_3_k_cycle_family():
    """Worst value of the k-loop delivery product is (3k-1)/(3k), k = 1..4."""
    game, _, _ = gen_example1()
    start = time.monotonic()
    values = []
    for k in range(1, 5):
        product = implement(game, k_cycle_delivery_rm(game, k))
        values.append(exact_worst_ne(product).global_payoff)
    elapsed = time.monotonic() - start
    expected = [Fraction(3 * k - 1, 3 * k) for k in range(1, 5)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    ok = values == expected and increasing and elapsed < 10.0
    report(3, ok, f"values {[str(v) for v in values]} match (3k-1)/3k and "
                  f"increase strictly, {elapsed:.2f} s")


def test_criterion_4_tsp_reduction():
    """floor(eps-worst) with eps = 1 equals the optimal tour cost on three
    4-city instances (fixed seed; see the balanced multi-lap
    characterization test for why arbitrary instances may differ)."""
    rng = random.Random(3)
    verts = [f"v{i}" for i in range(1, 5)]
    all_ok = True
    details = []
    for trial in range(3):
        costs = {(u, v): rng.randint(1, 9) for u in verts for v in verts if u != v}
        best = None
        for perm in itertools.permutations(verts[1:]):
            tour = [verts[0]] + list(perm)
            c = sum(costs[(tour[i], tour[(i + 1) % 4])] for i in range(4))
            best = c if best is None else min(best, c)
        game = gen_tsp_game(complete_digraph(4, costs))
        start = time.monotonic()
        value = epsilon_worst_ne(game, Fraction(1))
        elapsed = time.monotonic() - start
        match = math.floor(value) == best and elapsed < 60.0
        all_ok &= match
        details.append(f"opt {best} vs floor({value}) in {elapsed:.2f} s")
    report(4, all_ok, "; ".join(details))


def test_criterion_5_hamiltonian_reductions():
    """Strong improvement is yes exactly on the 3-vertex graph with a
    Hamiltonian path; the complement construction flips the weak answer."""
    with_path = CostDigraph(("v1", "v2", "v3"),
                            (("v1", "v2"), ("v2", "v3"), ("v3", "v1")))
    without_path = CostDigraph(("v1", "v2", "v3"),
                               (("v1", "v2"), ("v1", "v3")))
    strong_q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1),
                                mode="strong", method="certify")
    weak_q = ImprovementQuery(budget=1, delta=Fraction(1, 2), epsilon=Fraction(1),
                              mode="weak", method="certify")
    start = time.monotonic()
    strong_yes = decide_improvement(gen_hamiltonian_game(with_path), strong_q)
    strong_no = decide_improvement(gen_hamiltonian_game(without_path), strong_q)
    weak_no = decide_improvement(gen_hamiltonian_complement_game(with_path), weak_q)
    weak_yes = decide_improvement(gen_hamiltonian_complement_game(without_path), weak_q)
    elapsed = time.monotonic() - start
    ok = (
        strong_yes.decision and not strong_no.decision
        and weak_yes.decision and not weak_no.decision
        and elapsed < 60.0
    )
    report(5, ok, f"strong yes/no = {strong_yes.decision}/{strong_no.decision}, "
                  f"weak flipped = {weak_yes.decision}/{weak_no.decision}, "
                  f"{elapsed:.1f} s")


def test_criterion_6_backend_agreement():
    """LP and bounded-oracle backends agree on 200 seeded threshold queries."""
    rng = random.Random(20260808)
    start = time.monotonic()
    agreements = 0
    for k in range(200):
        n_states = rng.choice([2, 3, 4])
        game = gen_random_game(seed=1000 + k, n_players=2, n_states=n_states,
                               n_actions=2, weight_range=(-2, 2))

        def bounds():
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            style = rng.random()
            if style < 0.4:
                return (NEG_INF, c)
            if style < 0.8:
                return (c, POS_INF)
            return (c, c + rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))

        gl, gu = bounds()
        lows, highs = [], []
        for _ in range(2):
            lo, hi = bounds() if rng.random() < 0.25 else (NEG_INF, POS_INF)
            lows.append(lo)
            highs.append(hi)
        query = ThresholdQuery(tuple(lows), tuple(highs), gl, gu)
        solver = NashLassoSolver(game, None, bound=12)
        if (solver.query_oracle(query) is not None) == solver.lp_feasible(query):
            agreements += 1
    elapsed = time.monotonic() - start
    ok = agreements == 200 and elapsed < 300.0
    report(6, ok, f"{agreements}/200 agreements in {elapsed:.1f} s")


def _certified_ne(game, profile, skip=None):
    lasso = run_profile(game, profile)
    per, _ = payoffs(game, lasso)
    for i in range(game.n_players):
        if i == skip:
            continue
        if best_response_value(game, profile.without(i), i) > per[i]:
            return False
    return True


def test_criterion_7_translation_suite():
    """Path/payoff translation properties and the equilibrium correspondence on
    100 seeded (game, machine, profile) triples, all equalities exact."""
    start = time.monotonic()
    checked = 0
    for seed in range(100):
        game = gen_random_game(seed + 5000, n_players=2, n_states=3, n_actions=2)
        rm = gen_random_rm(game, seed, n_states=2, budget=1)
        aux = build_auxiliary(game, 1)
        product = implement(game, rm)
        sigmas = [gen_random_strategy(product, i, seed + 61 * i, n_memory=2)
                  for i in range(2)]
        profile = StrategyProfile((0, 1), tuple(sigmas))
        lasso = run_profile(product, profile)

        # Path correspondence, first direction: the product play maps onto an
        # auxiliary play against the machine's strategy, state components
        # equal, reward components shifted one step, payoffs exact.
        pairs = {}
        for ps, name in enumerate(product.state_names):
            left, _, right = name.rpartition("|")
            pairs[ps] = (game.state_names.index(left), rm.state_names.index(right))
        horizon = len(lasso) + 2 * len(lasso.cycle_states)
        pstates = list(lasso.prefix_states)
        while len(pstates) < horizon:
            pstates.extend(lasso.cycle_states)
        pstates = pstates[:horizon]
        src = [pairs[ps][0] for ps in pstates]
        mach = [pairs[ps][1] for ps in pstates]
        rewards = [rm.rewards[q][s] for s, q in zip(src, mach)]
        vecs = [(0,) * 2] + rewards[:-1]
        sigma_m = rm_to_strategy(aux, rm)
        mem = sigma_m.initial
        for k in range(horizon - 1):
            aux_state = aux.pair_id[(src[k], aux.vec_index[vecs[k]])]
            assert mem == mach[k]
            played = sigma_m.act[mem][aux_state] - aux.vector_action[0]
            assert aux.vectors[played] == rewards[k]
            mem = sigma_m.step[mem][aux_state]
        L = len(lasso.cycle_states)
        for i in range(2):
            prod_sum = sum(product.weights[i][pstates[k]]
                           for k in range(horizon - L, horizon))
            aux_sum = sum(game.weights[i][src[k]] + vecs[k][i]
                          for k in range(horizon - L, horizon))
            assert prod_sum == aux_sum

        # Exact payoff transfer, product -> auxiliary.
        lifted = [lift_strategy(aux, rm, product, sigmas[i], i) for i in range(2)]
        aux_profile = StrategyProfile((0, 1, 2), (sigma_m, *lifted))
        aux_run = run_profile(aux.game, aux_profile)
        per_prod, glob_prod = payoffs(product, lasso)
        per_aux, glob_aux = payoffs(aux.game, aux_run)
        assert per_prod == per_aux[1:]
        assert glob_prod == glob_aux

        # Exact payoff transfer, auxiliary -> product.
        from eqdesign.auxiliary import lower_strategy, strategy_to_rm

        sigma0 = gen_random_strategy(aux.game, 0, seed + 7)
        rm2 = strategy_to_rm(aux, sigma0)
        product2 = implement(game, rm2)
        hats = [gen_random_strategy(aux.game, i + 1, seed + 83 * i) for i in range(2)]
        aux_run2 = run_profile(aux.game, StrategyProfile((0, 1, 2), (sigma0, *hats)))
        lowered = [lower_strategy(aux, rm2, product2, hats[i], i) for i in range(2)]
        prod_run2 = run_profile(product2, StrategyProfile((0, 1), tuple(lowered)))
        per_a2, glob_a2 = payoffs(aux.game, aux_run2)
        per_p2, glob_p2 = payoffs(product2, prod_run2)
        assert per_p2 == per_a2[1:]
        assert glob_p2 == glob_a2

        # Certificate-level equilibrium correspondence.
        assert _certified_ne(product, profile) == _certified_ne(
            aux.game, aux_profile, skip=0)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 100 and elapsed < 300.0
    report(7, ok, f"{checked}/100 triples, all equalities exact, {elapsed:.1f} s")


def test_criterion_8_algorithm_contract():
    """Iteration count formula, value-vs-exact bracketing, and the two
    infinite-memory example values."""
    start = time.monotonic()
    checked = 0
    skipped = 0
    for seed in range(60):
        if checked == 20:
            break
        game = gen_random_game(seed + 7000, n_players=2, n_states=3, n_actions=2)
        span = max(game.global_weights) - min(game.global_weights)
        if span == 0:
            skipped += 1
            continue
        probe = algorithm_trace(game, Fraction(span))
        if not probe.ne_exists:
            skipped += 1
            continue
        eps = Fraction(span, 5)
        trace = algorithm_trace(game, eps)
        assert trace.iterations == math.ceil(math.log2(Fraction(span) / eps))
        worst = exact_worst_ne(game).global_payoff
        assert worst <= trace.value < worst + eps
        best_trace = algorithm_trace(game, eps, maximize=True)
        best = exact_best_ne(game).global_payoff
        assert best - eps < best_trace.value <= best
        checked += 1

    a1 = gen_infinite_memory_example()
    sid = {n: i for i, n in enumerate(a1.state_names)}
    l4 = lasso_from_states(a1, [sid["t"], sid["l"], sid["b"], sid["r"]], 0)
    l6 = lasso_from_states(
        a1, [sid["t"], sid["l"], sid["l"], sid["b"], sid["r"], sid["r"]], 0)
    values_ok = (
        payoffs(a1, l4)[1] == Fraction(-1, 4)
        and payoffs(a1, l6)[1] == Fraction(-1, 3)
        and is_ne_outcome(a1, l4)
        and is_ne_outcome(a1, l6)
    )
    elapsed = time.monotonic() - start
    ok = checked == 20 and values_ok
    report(8, ok, f"{checked} games match the iteration formula and bracket "
                  f"their exact values; -1/4 and -1/3 reproduced exactly; "
                  f"{elapsed:.1f} s")

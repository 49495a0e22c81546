"""Auxiliary-game construction and the four strategy/machine translations.

The translation properties are exercised exactly: state components of
corresponding plays match step by step, reward components match up to the
one-step shift the state recording introduces, and all mean payoffs agree
exactly.  The equilibrium correspondence is checked at the certificate
level via exact best-response values on both sides.
"""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from eqdesign.auxiliary import (
    REWARD_VECTOR_LIMIT,
    build_auxiliary,
    lift_strategy,
    lower_strategy,
    machine_state_vectors,
    reward_vectors,
    rm_to_strategy,
    strategy_to_rm,
)
from eqdesign.benchmarks import (
    gen_random_game,
    gen_random_rm,
    gen_random_strategy,
)
from eqdesign.design import exact_worst_ne
from eqdesign.games import MealyStrategy, StrategyProfile, payoffs, run_profile
from eqdesign.rewards import (
    RewardMachineError,
    from_subsidy_scheme,
    implement,
    product_arena,
    zero_rm,
)
from eqdesign.zerosum import SolverLimitError, best_response_value


def product_pairs(game, rm, product):
    """Product state id -> (source state id, machine state id)."""
    out = {}
    for ps, name in enumerate(product.state_names):
        left, _, right = name.rpartition("|")
        out[ps] = (game.state_names.index(left), rm.state_names.index(right))
    return out


def unroll_product(product, lasso, horizon):
    states = list(lasso.prefix_states)
    moves = list(lasso.prefix_moves)
    while len(states) < horizon:
        states.extend(lasso.cycle_states)
        moves.extend(lasso.cycle_moves)
    return states[:horizon], moves[:horizon]


class TestBuildAuxiliary:
    def test_vector_alphabet_counts(self):
        assert reward_vectors(1, 1) == ((0,), (1,))
        assert reward_vectors(2, 1) == ((0, 0), (0, 1), (1, 0))
        assert len(reward_vectors(2, 2)) == 6  # C(budget+n, n)

    def test_zero_vector_comes_first(self):
        """Every reader of the zero vector takes it at index 0."""
        for n_players, budget in itertools.product(range(1, 5), range(4)):
            assert reward_vectors(n_players, budget)[0] == (0,) * n_players

    @pytest.mark.parametrize("n_players,budget", [(1, 4999), (2, 98), (3, 29), (5, 11)])
    def test_alphabet_at_the_limit(self, n_players, budget):
        vectors = reward_vectors(n_players, budget)
        assert len(vectors) == math.comb(budget + n_players, n_players) <= REWARD_VECTOR_LIMIT
        assert list(vectors) == sorted(set(vectors))
        assert all(min(v) >= 0 and sum(v) <= budget for v in vectors)

    @pytest.mark.parametrize("n_players,budget", [(1, 5000), (2, 99), (3, 30), (5, 10**6)])
    def test_oversized_alphabet_refused_before_listing(self, n_players, budget):
        start = time.perf_counter()
        with pytest.raises(SolverLimitError, match="size limit"):
            reward_vectors(n_players, budget)
        assert time.perf_counter() - start < 0.5

    def test_example1_budget_one(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        assert aux.vectors == ((0,), (1,))
        assert aux.game.n_states <= game.n_states * 2
        assert aux.game.player_names[0] == "agent0"

    def test_zero_budget_preserves_payoffs(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 0)
        assert len(aux.vectors) == 1
        product = implement(game, zero_rm(game))
        sigma0 = rm_to_strategy(aux, zero_rm(game))
        robot = gen_random_strategy(product, 0, 3)
        lifted = lift_strategy(aux, zero_rm(game), product, robot, 0)
        aux_run = run_profile(aux.game, StrategyProfile((0, 1), (sigma0, lifted)))
        prod_run = run_profile(product, StrategyProfile((0,), (robot,)))
        per_aux, glob_aux = payoffs(aux.game, aux_run)
        per_prod, glob_prod = payoffs(product, prod_run)
        assert per_aux[1] == per_prod[0]
        assert glob_aux == glob_prod  # designer weight == source global weight

    def test_deterministic_vector_order(self):
        assert reward_vectors(3, 1) == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_indexes_invert_pairs_and_vectors(self):
        aux = build_auxiliary(gen_random_game(2, n_players=2, n_states=3), 2)
        assert [aux.pair_id[(s, vi)] for s, vi in aux.pair_of_state] == list(
            range(aux.game.n_states))
        assert [aux.vec_index[v] for v in aux.vectors] == list(range(len(aux.vectors)))


class TestRmToStrategy:
    def test_zero_machine_plays_zero_vector(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        sigma0 = rm_to_strategy(aux, zero_rm(game))
        zero_act = aux.vector_action[aux.vec_index[(0,)]]
        assert all(a == zero_act for row in sigma0.act for a in row)

    def test_over_budget_machine_rejected(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 0)
        _, m1, _ = example1
        with pytest.raises(RewardMachineError):
            rm_to_strategy(aux, m1)

    def test_round_trip_reward_sequences(self, example1):
        """Machine -> strategy -> machine preserves the reward stream on
        every robot play of length up to 8."""
        game, m1, _ = example1
        aux = build_auxiliary(game, 1)
        back = strategy_to_rm(aux, rm_to_strategy(aux, m1))

        def reward_stream(rm, actions):
            s, q = game.initial, rm.initial
            out = []
            for a in actions:
                out.append(rm.rewards[q][s])
                q = rm.step[q][s]
                if a not in game.protocol[0][s]:
                    break
                s = game.transitions[(s, (a,))]
            return out

        for plan in itertools.product(range(len(game.action_names)), repeat=8):
            s = game.initial
            actions = []
            for a in plan:
                if a not in game.protocol[0][s]:
                    break
                actions.append(a)
                s = game.transitions[(s, (a,))]
            if len(actions) < 8:
                continue
            assert reward_stream(m1, actions) == reward_stream(back, actions)


class TestStrategyToRm:
    def test_constant_zero_strategy_gives_silent_machine(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        zero_act = aux.vector_action[aux.vec_index[(0,)]]
        sigma0 = MealyStrategy(
            1, 0, ((0,) * aux.game.n_states,), ((zero_act,) * aux.game.n_states,))
        rm = strategy_to_rm(aux, sigma0)
        assert rm.max_norm() == 0

    def test_replaying_delivery_rewards_recovers_two_thirds(self, example1):
        """Replaying the designer lasso with rewards (0),(0),(1) gives a
        machine whose product matches the one-cycle delivery value, the
        product of the direct replay machine."""
        from candidate_oracle import replay_strategy
        from eqdesign.design import replay_machine
        from lasso_walks import lasso_from_states

        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        t, l, m = (game.state_names.index(x) for x in ("t", "l", "m"))
        zero_vi = aux.vec_index[(0,)]
        one_vi = aux.vec_index[(1,)]
        cycle = [aux.pair_id[(t, zero_vi)], aux.pair_id[(l, zero_vi)],
                 aux.pair_id[(m, one_vi)]]
        lasso = lasso_from_states(aux.game, cycle, 0)
        sigma0 = replay_strategy(aux, lasso)
        rm = strategy_to_rm(aux, sigma0)
        product = implement(game, rm)
        assert exact_worst_ne(product).global_payoff == Fraction(2, 3)
        direct = implement(game, replay_machine(aux, lasso))
        assert (direct.arena.protocol, direct.arena.transitions) == (
            product.arena.protocol, product.arena.transitions)
        assert (direct.weights, direct.global_weights) == (
            product.weights, product.global_weights)

    @pytest.mark.parametrize("seed", range(8))
    def test_path_equivalence_for_strategies(self, seed):
        """Any designer strategy and its machine induce weight-identical
        plays (reverse direction of the path correspondence)."""
        game = gen_random_game(seed, n_players=2, n_states=3)
        aux = build_auxiliary(game, 1)
        sigma0 = gen_random_strategy(aux.game, 0, seed)
        rm = strategy_to_rm(aux, sigma0)
        product = implement(game, rm)
        hats = [gen_random_strategy(aux.game, i + 1, seed + 17 * i) for i in range(2)]
        lowered = [lower_strategy(aux, rm, product, hats[i], i) for i in range(2)]
        aux_run = run_profile(
            aux.game, StrategyProfile((0, 1, 2), (sigma0, hats[0], hats[1])))
        prod_run = run_profile(product, StrategyProfile((0, 1), tuple(lowered)))
        per_aux, glob_aux = payoffs(aux.game, aux_run)
        per_prod, glob_prod = payoffs(product, prod_run)
        assert per_prod == per_aux[1:]
        assert glob_prod == glob_aux


class TestLiftLower:
    def test_round_trip_reproduces_actions(self, example1):
        game, m1, _ = example1
        aux = build_auxiliary(game, 1)
        product = implement(game, m1)
        sigma = gen_random_strategy(product, 0, 4, n_memory=1)
        lifted = lift_strategy(aux, m1, product, sigma, 0)
        # A memoryless product strategy lifts to a machine-indexed one;
        # check action agreement on every reachable product state.
        for ps, name in enumerate(product.state_names):
            left, _, right = name.rpartition("|")
            s = game.state_names.index(left)
            q = m1.state_names.index(right)
            aux_state = aux.pair_id[(s, 0)]
            mem = lifted.initial
            # memory (t0, q): locate the pair id used by the lift
            mem = q  # single source memory: pair ids are (0, q) in order
            assert lifted.act[mem][aux_state] == sigma.act[0][ps]

    def test_always_go_left_lifted_projects_to_delivery(self, example1):
        game, m1, _ = example1
        aux = build_auxiliary(game, 1)
        product = implement(game, m1)
        aid = {n: i for i, n in enumerate(game.action_names)}
        acts = []
        for ps, name in enumerate(product.state_names):
            left = name.rpartition("|")[0]
            allowed = game.protocol[0][game.state_names.index(left)]
            acts.append(aid["go_l"] if aid["go_l"] in allowed
                        else (aid["go_m"] if aid["go_m"] in allowed else allowed[0]))
        robot = MealyStrategy(1, 0, ((0,) * product.n_states,), (tuple(acts),))
        sigma_m = rm_to_strategy(aux, m1)
        lifted = lift_strategy(aux, m1, product, robot, 0)
        aux_run = run_profile(aux.game, StrategyProfile((0, 1), (sigma_m, lifted)))
        cycle_sources = {aux.pair_of_state[x][0] for x in aux_run.cycle_states}
        assert cycle_sources == {game.state_names.index(n) for n in ("t", "l", "m")}

    def test_lower_requires_vector_tracking_machine(self, example1):
        game, m1, _ = example1
        aux = build_auxiliary(game, 1)
        with pytest.raises(RewardMachineError):
            machine_state_vectors(aux, m1)

    def test_lower_refuses_over_budget_machine(self, example1):
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        with pytest.raises(RewardMachineError, match="beyond the budget"):
            machine_state_vectors(aux, from_subsidy_scheme(game, {game.initial: (2,)}))

    @pytest.mark.parametrize("seed", range(6))
    def test_lift_then_lower_round_trip(self, seed):
        """Lifting a product strategy and lowering it back reproduces its
        action choices on every reachable (state, memory) configuration."""
        game = gen_random_game(seed + 400, n_players=2, n_states=3)
        aux = build_auxiliary(game, 1)
        sigma0 = gen_random_strategy(aux.game, 0, seed)
        rm = strategy_to_rm(aux, sigma0)
        product = implement(game, rm)
        sigma = gen_random_strategy(product, 0, seed + 9, n_memory=1)
        back = lower_strategy(
            aux, rm, product, lift_strategy(aux, rm, product, sigma, 0), 0)
        other = gen_random_strategy(product, 1, seed + 21)
        run_a = run_profile(product, StrategyProfile((0, 1), (sigma, other)))
        run_b = run_profile(product, StrategyProfile((0, 1), (back, other)))
        assert run_a.prefix_states == run_b.prefix_states
        assert run_a.cycle_states == run_b.cycle_states
        # Same choices at every reachable product state under the lift's
        # memory pairing, not just along one run.
        for ps, name in enumerate(product.state_names):
            q = rm.state_names.index(name.rpartition("|")[2])
            lowered_mem = sigma.initial * rm.n_states + q
            assert back.act[lowered_mem][ps] == sigma.act[sigma.initial][ps]

    def test_bars_in_state_names(self, example1):
        """Product states are paired by the walk that builds the product,
        so ``|`` inside game or machine state names changes nothing."""
        game, _, _ = example1
        aux = build_auxiliary(game, 1)
        rm = strategy_to_rm(aux, gen_random_strategy(aux.game, 0, 7))
        product = implement(game, rm)
        bar_game = replace(game, state_names=tuple(f"{n}|g" for n in game.state_names))
        bar_aux = build_auxiliary(bar_game, 1)
        bar_rm = replace(rm, state_names=tuple(f"m|{k}" for k in range(rm.n_states)))
        bar_product = implement(bar_game, bar_rm)

        pairs = product_pairs(game, rm, product)
        bar_pairs, _ = product_arena(bar_game, bar_rm)
        assert dict(enumerate(bar_pairs)) == pairs
        sigma = gen_random_strategy(product, 0, 5)
        lifted = lift_strategy(bar_aux, bar_rm, bar_product, sigma, 0)
        assert lifted == lift_strategy(aux, rm, product, sigma, 0)
        for ps, (s, q) in pairs.items():
            for vi in range(len(aux.vectors)):
                mem = sigma.initial * rm.n_states + q
                assert lifted.act[mem][aux.pair_id[(s, vi)]] == sigma.act[sigma.initial][ps]
        hat = gen_random_strategy(aux.game, 1, 9)
        lowered = lower_strategy(bar_aux, bar_rm, bar_product, hat, 0)
        assert lowered == lower_strategy(aux, rm, product, hat, 0)
        vec_of = machine_state_vectors(aux, rm)
        for ps, (s, q) in pairs.items():
            assert lowered.act[0][ps] == hat.act[0][aux.pair_id[(s, vec_of[q])]]

    def test_product_of_another_machine_rejected(self, example1):
        game, m1, m2 = example1
        aux = build_auxiliary(game, 1)
        product = implement(game, m1)
        sigma = gen_random_strategy(product, 0, 2)
        with pytest.raises(RewardMachineError, match="implementation"):
            lift_strategy(aux, m2, product, sigma, 0)


def certified_ne(game, profile, skip=None):
    lasso = run_profile(game, profile)
    per, _ = payoffs(game, lasso)
    for i in range(game.n_players):
        if i == skip:
            continue
        if best_response_value(game, profile.without(i), i) > per[i]:
            return False
    return True


class TestPathCorrespondence:
    @pytest.mark.parametrize("seed", range(10))
    def test_product_play_realizable_with_shifted_rewards(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        rm = gen_random_rm(game, seed, n_states=2, budget=1)
        aux = build_auxiliary(game, 1)
        product = implement(game, rm)
        profile = StrategyProfile(
            (0, 1),
            (gen_random_strategy(product, 0, seed),
             gen_random_strategy(product, 1, seed + 5)),
        )
        lasso = run_profile(product, profile)
        pairs = product_pairs(game, rm, product)
        horizon = len(lasso) + 2 * len(lasso.cycle_states)
        pstates, _ = unroll_product(product, lasso, horizon)

        src = [pairs[ps][0] for ps in pstates]
        mach = [pairs[ps][1] for ps in pstates]
        rewards = [rm.rewards[q][s] for s, q in zip(src, mach)]

        # Corresponding auxiliary play: same states, rewards one step later.
        vecs = [(0,) * game.n_players] + rewards[:-1]

        # Realizability against the machine's strategy: its memory mirrors
        # the machine and it plays exactly the vector recorded next.
        sigma_m = rm_to_strategy(aux, rm)
        mem = sigma_m.initial
        for k in range(horizon - 1):
            aux_state = aux.pair_id[(src[k], aux.vec_index[vecs[k]])]
            assert mem == mach[k]
            played = sigma_m.act[mem][aux_state]
            assert aux.vectors[played - aux.vector_action[0]] == rewards[k]
            mem = sigma_m.step[mem][aux_state]

        # Exact per-step weight relations: state parts align at equal
        # indices, reward parts one step apart.
        for k in range(1, horizon):
            for i in range(game.n_players):
                aux_w = game.weights[i][src[k]] + vecs[k][i]
                assert aux_w - game.weights[i][src[k]] == \
                    product.weights[i][pstates[k - 1]] - game.weights[i][src[k - 1]]
            aux_g = game.global_weights[src[k]] - sum(vecs[k])
            assert aux_g - game.global_weights[src[k]] == \
                product.global_weights[pstates[k - 1]] - game.global_weights[src[k - 1]]

        # Exact payoff equality over one full period, late enough to be
        # inside both cycles.
        L = len(lasso.cycle_states)
        start = horizon - L
        for i in range(game.n_players):
            prod_sum = sum(product.weights[i][pstates[k]] for k in range(start, horizon))
            aux_sum = sum(game.weights[i][src[k]] + vecs[k][i]
                          for k in range(start, horizon))
            assert prod_sum == aux_sum
        prod_g = sum(product.global_weights[pstates[k]] for k in range(start, horizon))
        aux_g = sum(game.global_weights[src[k]] - sum(vecs[k])
                    for k in range(start, horizon))
        assert prod_g == aux_g


class TestPayoffTransfer:
    @pytest.mark.parametrize("seed", range(12))
    def test_payoff_preserved_product_to_auxiliary(self, seed):
        game = gen_random_game(seed, n_players=2, n_states=3)
        rm = gen_random_rm(game, seed, n_states=2, budget=1)
        aux = build_auxiliary(game, 1)
        product = implement(game, rm)
        sigmas = [gen_random_strategy(product, i, seed + 31 * i) for i in range(2)]
        prod_run = run_profile(product, StrategyProfile((0, 1), tuple(sigmas)))
        sigma_m = rm_to_strategy(aux, rm)
        lifted = [lift_strategy(aux, rm, product, sigmas[i], i) for i in range(2)]
        aux_run = run_profile(
            aux.game, StrategyProfile((0, 1, 2), (sigma_m, *lifted)))
        per_prod, glob_prod = payoffs(product, prod_run)
        per_aux, glob_aux = payoffs(aux.game, aux_run)
        assert per_prod == per_aux[1:]
        assert glob_prod == glob_aux

    @pytest.mark.parametrize("seed", range(12))
    def test_payoff_preserved_auxiliary_to_product(self, seed):
        game = gen_random_game(seed + 100, n_players=2, n_states=3)
        aux = build_auxiliary(game, 1)
        sigma0 = gen_random_strategy(aux.game, 0, seed)
        rm = strategy_to_rm(aux, sigma0)
        product = implement(game, rm)
        hats = [gen_random_strategy(aux.game, i + 1, seed + 13 * i) for i in range(2)]
        aux_run = run_profile(
            aux.game, StrategyProfile((0, 1, 2), (sigma0, *hats)))
        lowered = [lower_strategy(aux, rm, product, hats[i], i) for i in range(2)]
        prod_run = run_profile(product, StrategyProfile((0, 1), tuple(lowered)))
        per_prod, glob_prod = payoffs(product, prod_run)
        per_aux, glob_aux = payoffs(aux.game, aux_run)
        assert per_prod == per_aux[1:]
        assert glob_prod == glob_aux


class TestEquilibriumCorrespondence:
    @pytest.mark.parametrize("seed", range(15))
    def test_certificates_transfer_both_ways(self, seed):
        """A product profile is a certified equilibrium exactly when its
        designer-fixed image in the auxiliary game is."""
        game = gen_random_game(seed + 200, n_players=2, n_states=3)
        rm = gen_random_rm(game, seed, n_states=2, budget=1)
        aux = build_auxiliary(game, 1)
        product = implement(game, rm)
        sigmas = [gen_random_strategy(product, i, seed + 41 * i) for i in range(2)]
        profile = StrategyProfile((0, 1), tuple(sigmas))
        sigma_m = rm_to_strategy(aux, rm)
        lifted = [lift_strategy(aux, rm, product, sigmas[i], i) for i in range(2)]
        aux_profile = StrategyProfile((0, 1, 2), (sigma_m, *lifted))
        assert certified_ne(product, profile) == certified_ne(
            aux.game, aux_profile, skip=0)

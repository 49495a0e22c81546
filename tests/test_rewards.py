from fractions import Fraction

import pytest

from eqdesign.benchmarks import gen_random_game, gen_random_rm, gen_random_strategy
from eqdesign.design import exact_worst_ne
from eqdesign.games import StrategyProfile, payoffs, run_profile
from eqdesign.rewards import (
    RewardMachineError,
    from_subsidy_scheme,
    implement,
    is_beta_rm,
    k_cycle_delivery_rm,
    zero_rm,
)

from conftest import lasso_by_names


class TestBudgetCheck:
    def test_zero_rewards_zero_budget(self, example1):
        game, _, _ = example1
        assert is_beta_rm(zero_rm(game), 0)

    def test_delivery_machine_within_one(self, example1):
        _, m1, _ = example1
        assert is_beta_rm(m1, 1)
        assert not is_beta_rm(m1, 0)

    def test_sum_exceeding_budget(self):
        game = gen_random_game(0, n_players=2, n_states=2)
        rm = from_subsidy_scheme(game, {0: (1, 1)})
        assert not is_beta_rm(rm, 1)
        assert is_beta_rm(rm, 2)


class TestImplement:
    def test_zero_machine_is_payoff_identity(self, example1):
        game, _, _ = example1
        product = implement(game, zero_rm(game))
        assert product.n_states == game.n_states
        for names in (["t", "r"], ["t", "l", "m"], ["t", "r", "m"]):
            src = lasso_by_names(game, names)
            prod = lasso_by_names(product, [f"{n}|q0" for n in names])
            assert payoffs(game, src) == payoffs(product, prod)

    def test_delivery_products_match_known_values(self, example1_products):
        p1, p2 = example1_products
        assert exact_worst_ne(p1).global_payoff == Fraction(2, 3)
        assert exact_worst_ne(p2).global_payoff == Fraction(5, 6)

    def test_state_space_mismatch_rejected(self, example1):
        game, m1, _ = example1
        other = gen_random_game(1, n_players=1, n_states=2)
        with pytest.raises(RewardMachineError):
            implement(other, m1)

    @pytest.mark.parametrize("seed", range(10))
    def test_product_payoff_decomposition(self, seed):
        """Product payoff = source payoff + collected reward rate, per player;
        the product global payoff never exceeds the projected source one."""
        game = gen_random_game(seed, n_players=2, n_states=3)
        rm = gen_random_rm(game, seed, n_states=2, budget=1)
        product = implement(game, rm)
        profile = StrategyProfile(
            (0, 1),
            (gen_random_strategy(product, 0, seed),
             gen_random_strategy(product, 1, seed + 7)),
        )
        lasso = run_profile(product, profile)
        pairs = []
        for ps in lasso.cycle_states:
            left, _, right = product.state_names[ps].rpartition("|")
            pairs.append((game.state_names.index(left), rm.state_names.index(right)))
        length = len(pairs)
        per, glob = payoffs(product, lasso)
        for i in range(game.n_players):
            source_part = Fraction(sum(game.weights[i][s] for s, _ in pairs), length)
            reward_part = Fraction(sum(rm.rewards[q][s][i] for s, q in pairs), length)
            assert per[i] == source_part + reward_part
        projected = Fraction(sum(game.global_weights[s] for s, _ in pairs), length)
        assert glob <= projected


class TestSubsidySchemes:
    def test_zero_scheme(self, example1):
        game, _, _ = example1
        rm = from_subsidy_scheme(game, {})
        assert rm.n_states == 1
        assert rm.max_norm() == 0

    def test_paying_every_delivery_is_weaker_than_memory(self, example1):
        game, _, _ = example1
        m = game.state_names.index("m")
        product = implement(game, from_subsidy_scheme(game, {m: (1,)}))
        worst = exact_worst_ne(product).global_payoff
        assert worst < Fraction(2, 3)
        assert worst == Fraction(1, 3)

    @pytest.mark.parametrize("norm", [1, 2, 3])
    def test_budget_threshold_matches_largest_entry(self, norm, example1):
        game, _, _ = example1
        rm = from_subsidy_scheme(game, {0: (norm,)})
        assert not is_beta_rm(rm, norm - 1)
        assert is_beta_rm(rm, norm)

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, False, "1", -1])
    def test_non_natural_entry_refused(self, entry, example1):
        game, _, _ = example1
        with pytest.raises(RewardMachineError, match="state 0"):
            from_subsidy_scheme(game, {0: (entry,)})

    def test_wrong_arity_refused(self, example1):
        game, _, _ = example1
        with pytest.raises(RewardMachineError, match="arity"):
            from_subsidy_scheme(game, {0: (1, 1)})


class TestDeliveryMachines:
    def test_k1_structure(self, example1):
        game, m1, _ = example1
        assert m1.n_states == 3
        m = game.state_names.index("m")
        paying = [(q, s) for q in range(3) for s in range(game.n_states)
                  if sum(m1.rewards[q][s]) > 0]
        assert paying == [(2, m)]

    def test_k2_matches_second_machine(self, example1):
        game, _, m2 = example1
        assert k_cycle_delivery_rm(game, 2).canonical_key() == m2.canonical_key()
        assert m2.n_states == 6

    @pytest.mark.parametrize("k,expected", [
        (1, Fraction(2, 3)), (2, Fraction(5, 6)),
        (3, Fraction(8, 9)), (4, Fraction(11, 12)),
    ])
    def test_worst_value_closed_form(self, k, expected, example1):
        game, _, _ = example1
        product = implement(game, k_cycle_delivery_rm(game, k))
        assert exact_worst_ne(product).global_payoff == expected

    def test_strictly_increasing_in_k(self, example1):
        game, _, _ = example1
        values = [
            exact_worst_ne(implement(game, k_cycle_delivery_rm(game, k))).global_payoff
            for k in range(1, 5)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_k(self, example1):
        game, _, _ = example1
        with pytest.raises(RewardMachineError):
            k_cycle_delivery_rm(game, 0)

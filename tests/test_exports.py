"""The package's public names, pinned so that any new export is a visible diff."""

import types

import eqdesign

PUBLIC = [
    "AuxiliaryGame", "Game", "ImprovementAnswer", "ImprovementQuery", "Lasso",
    "MealyStrategy", "NEWitness", "NashLassoSolver", "RewardMachine",
    "SolverLimitError", "StrategyProfile", "ThresholdQuery",
    "best_response_value", "build_auxiliary", "decide_improvement",
    "epsilon_best_ne", "epsilon_worst_ne", "exact_best_ne", "exact_worst_ne",
    "from_subsidy_scheme", "grim_trigger_profile", "implement", "is_beta_rm",
    "is_ne_outcome", "k_cycle_delivery_rm", "lift_strategy", "lower_strategy",
    "make_game", "mean_payoff", "ne_threshold", "payoffs", "punishment_values",
    "rm_to_strategy", "run_profile", "strategy_to_rm", "synthesize_rm", "zero_rm",
]


def test_public_names_are_pinned():
    names = sorted(n for n in eqdesign.__all__
                   if not isinstance(getattr(eqdesign, n), types.ModuleType))
    assert names == PUBLIC

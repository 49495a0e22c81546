"""Equilibrium design toolkit for multi-player mean-payoff games."""

from .auxiliary import (
    AuxiliaryGame,
    build_auxiliary,
    lift_strategy,
    lower_strategy,
    rm_to_strategy,
    strategy_to_rm,
)
from .design import (
    ImprovementAnswer,
    ImprovementQuery,
    decide_improvement,
    epsilon_best_ne,
    epsilon_worst_ne,
    exact_best_ne,
    exact_worst_ne,
    synthesize_rm,
)
from .equilibria import (
    NashLassoSolver,
    NEWitness,
    ThresholdQuery,
    grim_trigger_profile,
    is_ne_outcome,
    ne_threshold,
)
from .games import (
    Game,
    Lasso,
    MealyStrategy,
    StrategyProfile,
    make_game,
    mean_payoff,
    payoffs,
    run_profile,
)
from .rewards import (
    RewardMachine,
    from_subsidy_scheme,
    implement,
    is_beta_rm,
    k_cycle_delivery_rm,
    zero_rm,
)
from .zerosum import (
    SolverLimitError,
    best_response_value,
    punishment_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""The package's public names and their parameters, pinned so that any new
export or option is a visible diff, and the rule that no module imports a
sibling's private name."""

import ast
import inspect
import types
from pathlib import Path

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


# Parameter names of every public callable but the exception, and of the
# solver's public methods.
PARAMETERS = {
    "AuxiliaryGame": ("game", "source", "budget", "vectors", "pair_of_state",
                      "vector_action", "pair_id", "vec_index"),
    "Game": ("player_names", "action_names", "state_names", "arena", "weights",
             "global_weights", "meta"),
    "ImprovementAnswer": ("decision", "baseline_value", "improved_value", "witness_rm",
                          "witness_lasso", "witness_game", "method", "mode"),
    "ImprovementQuery": ("budget", "delta", "epsilon", "mode", "method", "bound"),
    "Lasso": ("prefix_states", "cycle_states", "prefix_moves", "cycle_moves"),
    "MealyStrategy": ("n_memory", "initial", "step", "act"),
    "NEWitness": ("lasso", "profile", "player_payoffs", "global_payoff"),
    "NashLassoSolver": ("game", "fixed", "bound", "shared"),
    "RewardMachine": ("state_names", "initial", "step", "rewards"),
    "StrategyProfile": ("players", "strategies"),
    "ThresholdQuery": ("lower", "upper", "global_lower", "global_upper", "fixed_player"),
    "best_response_value": ("game", "others", "player"),
    "build_auxiliary": ("game", "budget"),
    "decide_improvement": ("game", "q"),
    "epsilon_best_ne": ("game", "epsilon", "fixed0", "backend", "bound"),
    "epsilon_worst_ne": ("game", "epsilon", "fixed0", "backend", "bound"),
    "exact_best_ne": ("game", "fixed", "bound"),
    "exact_worst_ne": ("game", "fixed", "bound"),
    "from_subsidy_scheme": ("game", "kappa"),
    "grim_trigger_profile": ("game", "lasso", "fixed"),
    "implement": ("game", "rm"),
    "is_beta_rm": ("rm", "budget"),
    "is_ne_outcome": ("game", "lasso", "fixed"),
    "k_cycle_delivery_rm": ("game", "k"),
    "lift_strategy": ("aux", "rm", "product", "sigma", "player"),
    "lower_strategy": ("aux", "rm", "product", "sigma_hat", "player"),
    "make_game": ("players", "actions", "states", "initial", "protocol", "transitions",
                  "weights", "global_weights", "meta"),
    "mean_payoff": ("weight_table", "lasso"),
    "ne_threshold": ("game", "query", "backend", "bound"),
    "payoffs": ("game", "lasso"),
    "punishment_values": ("game", "player"),
    "rm_to_strategy": ("aux", "rm"),
    "run_profile": ("game", "profile"),
    "strategy_to_rm": ("aux", "sigma0"),
    "synthesize_rm": ("game", "q"),
    "zero_rm": ("game",),
    "NashLassoSolver.extreme_signature": ("self", "maximize"),
    "NashLassoSolver.global_values": ("self",),
    "NashLassoSolver.has_equilibrium": ("self",),
    "NashLassoSolver.lp_feasible": ("self", "query"),
    "NashLassoSolver.lp_witness": ("self", "query"),
    "NashLassoSolver.query_oracle": ("self", "query"),
    "NashLassoSolver.realize": ("self", "rec"),
    "NashLassoSolver.signatures": ("self", "top"),
    "NashLassoSolver.threshold_signature": ("self", "threshold", "maximize"),
    "NashLassoSolver.witness": ("self", "rec"),
}


def test_parameters_are_pinned():
    found = {name: getattr(eqdesign, name) for name in PUBLIC if name != "SolverLimitError"}
    found |= {f"NashLassoSolver.{name}": method
              for name, method in vars(eqdesign.NashLassoSolver).items()
              if not name.startswith("_") and callable(method)}
    assert {name: tuple(inspect.signature(fn).parameters)
            for name, fn in found.items()} == PARAMETERS


SRC = Path(__file__).resolve().parent.parent / "src" / "eqdesign"


def private_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name a module imports from a
    sibling: a relative import, or one from ``eqdesign``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eqdesign"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_siblings_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: private_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_imports_are_found():
    source = "from .equilibria import NashLassoSolver, _row\nfrom eqdesign.design import _search\n"
    assert private_imports(source) == ["equilibria._row", "eqdesign.design._search"]
    assert private_imports("from __future__ import annotations\nimport _thread\n") == []

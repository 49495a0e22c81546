"""The package's public names, pinned so that any new export is a visible diff,
and the rule that no module imports a sibling's private name."""

import ast
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

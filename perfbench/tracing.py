"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps public functions of ``eqdesign`` in every ``eqdesign``
module namespace that holds them, plus the public methods of
``NashLassoSolver``, so calls between modules go through the wrappers while
no source file changes.  Spans (name, start, end, parent) are kept in memory
and only recorded while an op is running, never while the benchmark checks
answers.  ``uninstall`` puts every original back; the timed runs assert that
nothing is wrapped.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

# (layer, defining module, attribute).  ``_search`` is private but it is the
# binary search every extreme value and every certify candidate goes through.
FUNCTIONS = (
    ("zerosum.punishment_values", "eqdesign.zerosum", "punishment_values"),
    ("zerosum.best_response_value", "eqdesign.zerosum", "best_response_value"),
    ("simplex.feasible_point", "eqdesign.simplex", "feasible_point"),
    ("rewards.implement", "eqdesign.rewards", "implement"),
    ("design.decide_improvement", "eqdesign.design", "decide_improvement"),
    ("design.epsilon_search", "eqdesign.design", "_search"),
    ("auxiliary.build_auxiliary", "eqdesign.auxiliary", "build_auxiliary"),
    ("auxiliary.strategy_to_rm", "eqdesign.auxiliary", "strategy_to_rm"),
    ("fileio.parse_game", "eqdesign.fileio", "parse_game"),
    ("fileio.parse_rm", "eqdesign.fileio", "parse_rm"),
    ("cli.cli_main", "eqdesign.cli", "cli_main"),
)

# Public NashLassoSolver methods; every sweep entry point shares one layer.
SWEEP_ENTRIES = ("global_values", "signatures", "extreme_signature",
                 "query_oracle", "has_equilibrium")
METHODS = (
    (("equilibria.solver_init", "__init__"),)
    + tuple(("equilibria.sweep", m) for m in SWEEP_ENTRIES)
    + (("equilibria.realize", "realize"),
       ("equilibria.witness", "witness"),
       ("equilibria.lp_feasible", "lp_feasible"))
)

LAYERS = tuple(dict.fromkeys(
    [name for name, _, _ in FUNCTIONS] + [name for name, _ in METHODS]
))

MARK = "__perfbench_layer__"


def installed_wrappers() -> list[str]:
    """Names of every traced target that currently holds a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "eqdesign" or mod_name.startswith("eqdesign."):
            for attr, value in vars(mod).items():
                if hasattr(value, MARK):
                    found.append(f"{mod_name}.{attr}")
    solver = sys.modules["eqdesign.equilibria"].NashLassoSolver
    for attr, value in vars(solver).items():
        if hasattr(value, MARK):
            found.append(f"NashLassoSolver.{attr}")
    return found


class Tracer:
    """Span recorder plus the counters that need the arguments of a call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._swept = weakref.WeakSet()
        self._op_punishments: list[tuple] = []
        self.punishment_repeats = 0
        self.sweep_reuses = 0
        self.feasible_found = 0
        self.product_states = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "eqdesign" and not mod_name.startswith("eqdesign."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)
        solver = sys.modules["eqdesign.equilibria"].NashLassoSolver
        for layer, attr in METHODS:
            original = vars(solver)[attr]
            self._restore.append((solver, attr, original))
            setattr(solver, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer._stack
            parent = stack[-1] if stack else None
            idx = len(spans)
            span = [layer, time.perf_counter(), None, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._count(layer, args, result)
            return result

        setattr(wrapper, MARK, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer: str, args: tuple, result) -> None:
        if layer == "zerosum.punishment_values":
            self._op_punishments.append((args[0], args[1]))
        elif layer == "equilibria.sweep":
            solver = args[0]
            if solver in self._swept:
                self.sweep_reuses += 1
            else:
                self._swept.add(solver)
        elif layer == "simplex.feasible_point":
            self.feasible_found += result is not None
        elif layer == "rewards.implement":
            self.product_states += len(result.state_names)

    # -- op scoping -------------------------------------------------------------

    def begin_op(self) -> None:
        self._op_punishments = []
        self.active = True

    def end_op(self) -> None:
        """Stop recording and count punishment solves repeated within the op."""
        self.active = False
        seen = set()
        arenas: dict[int, tuple] = {}
        for game, player in self._op_punishments:
            arena = arenas.get(id(game))
            if arena is None:
                arena = (game.protocol, tuple(sorted(game.transitions.items())))
                arenas[id(game)] = arena
            key = (arena, player, game.weights[player])
            if key in seen:
                self.punishment_repeats += 1
            else:
                seen.add(key)
        self._op_punishments = []

    # -- reporting ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls and self time, plus the ratios named in BENCHMARK.json."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        candidates = 0
        for k, (layer, start, end, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child_s[k]
            if layer == "rewards.implement" and self._has_ancestor(
                    parent, "design.decide_improvement"):
                candidates += 1

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        out["zerosum.punishment_values.repeat_share"] = (
            share(self.punishment_repeats, calls["zerosum.punishment_values"]), "ratio")
        out["equilibria.sweep.reuse_share"] = (
            share(self.sweep_reuses, calls["equilibria.sweep"]), "ratio")
        out["simplex.feasible_point.feasible_share"] = (
            share(self.feasible_found, calls["simplex.feasible_point"]), "ratio")
        out["rewards.implement.product_states"] = (self.product_states, "count")
        out["design.candidates_per_decision"] = (
            share(candidates, calls["design.decide_improvement"]), "count")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: layer, start, end, parent index."""
        with open(path, "w") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps([layer, start, end, parent]) + "\n")

    def _has_ancestor(self, idx, layer: str) -> bool:
        while idx is not None:
            if self.spans[idx][0] == layer:
                return True
            idx = self.spans[idx][3]
        return False

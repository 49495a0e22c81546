"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps functions and solver methods by name, so a
rename in ``src/`` would break the traced benchmark run; this reads the
tracer as it is and installs it against the imported package.
"""

import importlib.util
import sys
from pathlib import Path

import eqdesign.auxiliary
import eqdesign.cli
import eqdesign.design
import eqdesign.equilibria
import eqdesign.fileio
import eqdesign.rewards
import eqdesign.simplex
import eqdesign.zerosum

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_uninstall_restores():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = set(tracing.installed_wrappers())
        for _, home, attr in tracing.FUNCTIONS:
            assert f"{home}.{attr}" in wrapped
        for _, attr in tracing.METHODS:
            assert f"NashLassoSolver.{attr}" in wrapped
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert not hasattr(sys.modules["eqdesign.design"].decide_improvement, tracing.MARK)

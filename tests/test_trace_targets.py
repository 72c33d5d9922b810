"""The spans of the benchmark's traced runs resolve in the package.

benchmarks/tracing.py is read as it is.  A module move that leaves a span
without its target, a caller holding another object than the one a span
wraps, or a stage its caller no longer calls would otherwise show only in
a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import faberelast
import faberelast.cli
import faberelast.fields
from faberelast import solver
from util import FIG_LOADING, FIG_MAPS, FIG_MATERIAL

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_target_is_a_package_callable(name):
    module, attr = tracing.TARGETS[name]
    assert module == "faberelast" or module.startswith("faberelast."), module
    owner = importlib.import_module(module)
    if isinstance(attr, tuple):
        owner, attr = getattr(owner, attr[0]), attr[1]
    assert callable(getattr(owner, attr))


def test_cli_calls_the_traced_field_writer():
    # the tracer wraps fields.write_field_csv in every namespace that holds
    # that same object, so the field command is timed and its bytes counted
    module, attr = tracing.TARGETS["fields.write_field_csv"]
    target = getattr(importlib.import_module(module), attr)
    assert target is faberelast.fields.write_field_csv
    assert faberelast.cli.write_field_csv is target
    assert faberelast.write_field_csv is target


def test_solve_full_calls_each_traced_stage_once(monkeypatch):
    # the solver.* spans wrap these module names, so solve_full must keep
    # calling them through the module: a private core that bypassed them
    # would read 0 in every traced benchmark round
    calls = []
    for name in ("build_y", "solve_block", "solve_c12"):
        def counted(*args, _name=name, _stage=getattr(solver, name), **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    solver.solve_full(FIG_MAPS["fig2"], FIG_LOADING, FIG_MATERIAL, 8)
    assert calls == ["build_y", "solve_block", "solve_c12"]

"""The spans of the benchmark's traced runs resolve in the package.

benchmarks/tracing.py is read as it is.  A module move that leaves a span
without its target, or a caller holding another object than the one a
span wraps, would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import faberelast
import faberelast.cli
import faberelast.fields

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

"""The benchmark's tracer reads ``mjls`` functions by name.

``mjlsbench/layers.py`` names each traced span ``<module>.<function>`` and
reads counters from some of their arguments.  A span whose function the
package no longer has reports ``null`` instead of a number, so renaming or
removing a traced function, or one of the arguments a counter reads, breaks
the benchmark without failing it.  These tests load ``layers.py`` by path
and check every name it uses against the package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "mjlsbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("mjlsbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()
SPANS = sorted({span for _, _, span, _ in layers.PER_LAYER}
               | set(layers.COUNTERS))


def traced_function(span):
    layer, name = span.split(".")
    assert layer in layers.LAYERS, span
    module = importlib.import_module(f"mjls.{layer}")
    assert name in module.__all__, f"{span} is not in mjls.{layer}.__all__"
    return getattr(module, name)


@pytest.mark.parametrize("span", SPANS)
def test_span_names_a_public_function(span):
    assert inspect.isfunction(traced_function(span)), span


def test_trial_steps_counter_arguments():
    parameters = inspect.signature(
        traced_function("sim.monte_carlo_cost")).parameters
    assert {"trials", "N"} <= set(parameters)

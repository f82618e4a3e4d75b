"""The benchmark under ``mjlsbench/`` runs this package; these tests replay
what it relies on.

``mjlsbench/layers.py`` names each traced span ``<module>.<function>`` and
reads counters from some of their arguments.  A span whose function the
package no longer has reports ``null`` instead of a number, so renaming or
removing a traced function, or one of the arguments a counter reads, breaks
the benchmark without failing it.  These tests load ``layers.py`` by path
and check every name it uses against the package.

``mjlsbench/run.py`` first imports ``mjls`` in a fresh interpreter, then
runs each workload's warm-up jobs through ``mjls.cli.main`` and checks
their artifacts with ``checks.py``.  An import that fails there, or a check
that raises anything but its own verdicts, ends the run with no result.
The last tests replay both steps, and then every job of one round of each
workload, with the benchmark's modules imported from its directory and no
file written there.
"""

import contextlib
import functools
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mjls.cli

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "mjlsbench"
LAYERS_PY = BENCH_DIR / "layers.py"
# Seed of the replayed warm-up; the benchmark's own runs use others.  At
# seed 72 the reference CARE solver of one marginal model stalls.
REPLAY_SEED = 5


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


def test_fresh_interpreter_imports_mjls():
    # run.py's set-up step, which runs with check=True.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", "import mjls"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@functools.cache
def bench_module(name):
    """A module of ``mjlsbench/`` imported as run.py imports it, from its
    directory on ``sys.path``, without writing bytecode there."""
    sys.path.insert(0, str(BENCH_DIR))
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write
        sys.path.remove(str(BENCH_DIR))


@functools.cache
def warm_up(workload):
    """The workload at ``REPLAY_SEED`` and run.py's warm-up, the first job
    of each subcommand, by subcommand."""
    made = bench_module("workloads").WORKLOADS[workload](REPLAY_SEED)
    first = {}
    for job in made.jobs:
        first.setdefault(job.command, job)
    return made, first


WARM_UP = {"design": ("solve-finite", "solve-care", "check"),
           "marginal": ("solve-care", "check"),
           "rollouts": ("simulate", "verify")}


def run_checked(made, job, tmp_path, refs):
    """Run ``job`` of workload ``made`` through ``mjls.cli.main`` and check
    it as run.py does; a known fault fails like wrong output."""
    checks = bench_module("checks")
    model = tmp_path / f"{job.model}.json"
    if not model.exists():
        model.write_text(json.dumps(made.models[job.model].to_json()),
                         encoding="utf-8")
    out = tmp_path / job.name.replace("/", "-")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        try:
            rc = mjls.cli.main([job.command, "--model", str(model),
                                "--out", str(out), *job.args])
        except SystemExit as exc:
            rc = exc.code
    try:
        checks.CHECKS[job.command](job, rc, captured.getvalue(), out, refs)
    except (checks.KnownFault, checks.WrongOutput) as exc:
        pytest.fail(f"{job.name}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("workload, command", [
    (workload, command) for workload, commands in WARM_UP.items()
    for command in commands])
def test_warm_up_job_passes_the_benchmark_check(workload, command,
                                                tmp_path):
    made, first = warm_up(workload)
    assert tuple(first) == WARM_UP[workload]
    job = first[command]
    run_checked(made, job, tmp_path,
                bench_module("checks").References(made.models[job.model]))


@pytest.mark.parametrize("workload", WARM_UP)
def test_round_passes_the_benchmark_check(workload, tmp_path):
    # Every job of one round at REPLAY_SEED, references shared per model
    # as in run.py.
    checks = bench_module("checks")
    made, _ = warm_up(workload)
    refs = {key: checks.References(model)
            for key, model in made.models.items()}
    for job in made.jobs:
        run_checked(made, job, tmp_path, refs[job.model])

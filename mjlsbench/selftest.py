"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest -q mjlsbench/selftest.py

Each check must pass the program's real output and reject it once it is
corrupted; the tracer must nest spans correctly on a toy call tree.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import models  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402

import mjls.cli as cli  # noqa: E402


def produce(tmp_path, model, job):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json()))
    out = tmp_path / "out"
    rc, text, _ = run.run_job(cli, job, path, out)
    return rc, text, out


def verdict(job, model, rc, text, out):
    checks.CHECKS[job.command](job, rc, text, out, checks.References(model))


def edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


@pytest.fixture(scope="module")
def design_model():
    return models.design_model(np.random.default_rng(5), 3, 2)


def test_solve_care_rejects_perturbed_P(tmp_path, design_model):
    job = workloads.Job("solve-care/t", "solve-care", "t")
    rc, text, out = produce(tmp_path, design_model, job)
    verdict(job, design_model, rc, text, out)

    def perturb(data):
        data["P"][1][0][0] *= 1.0 + 1e-6
    edit_json(out / "care.json", perturb)
    with pytest.raises(checks.WrongOutput, match="CARE residual"):
        verdict(job, design_model, rc, text, out)


def test_check_rejects_wrong_radius(tmp_path, design_model):
    job = workloads.Job("check/t", "check", "t")
    rc, text, out = produce(tmp_path, design_model, job)
    verdict(job, design_model, rc, text, out)

    def skew(data):
        data["open_loop"]["spectral_radius"] += 1e-4
    edit_json(out / "check.json", skew)
    with pytest.raises(checks.WrongOutput, match="open-loop radius"):
        verdict(job, design_model, rc, text, out)


def test_solve_finite_rejects_wrong_cost(tmp_path, design_model):
    job = workloads.Job("solve-finite/t", "solve-finite", "t",
                        ("--horizon", "30"))
    rc, text, out = produce(tmp_path, design_model, job)
    verdict(job, design_model, rc, text, out)

    def inflate(data):
        data["optimal_cost"] *= 1.0 + 1e-6
    edit_json(out / "gains.json", inflate)
    with pytest.raises(checks.WrongOutput, match="optimal cost"):
        verdict(job, design_model, rc, text, out)


def test_simulate_rejects_trajectory_row_off_by_1e_6(tmp_path):
    model = models.two_mode_benchmark()
    job = workloads.Job("simulate/t", "simulate", "t",
                        ("--horizon", "20", "--trials", "200", "--seed", "3",
                         "--terminal", "identity"))
    rc, text, out = produce(tmp_path, model, job)
    verdict(job, model, rc, text, out)
    path = out / "trajectories.csv"
    lines = path.read_text().splitlines()
    cells = lines[100].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[100] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.WrongOutput, match="off by"):
        verdict(job, model, rc, text, out)


def test_verify_rejects_failed_check(tmp_path):
    model = models.two_mode_benchmark()
    job = workloads.Job("verify/t", "verify", "t",
                        ("--horizon", "4", "--terminal", "identity"))
    rc, text, out = produce(tmp_path, model, job)
    verdict(job, model, rc, text, out)

    def fail(data):
        data["checks"][2]["passed"] = False
    edit_json(out / "verification.json", fail)
    with pytest.raises(checks.WrongOutput):
        verdict(job, model, rc, text, out)


def test_edge_model_is_the_known_budget_fault(tmp_path):
    model = models.scalar_model(workloads.EDGE_RADIUS)
    job = workloads.Job("solve-care/edge", "solve-care", "edge", (),
                        workloads.EDGE_FAULT)
    rc, text, out = produce(tmp_path, model, job)
    with pytest.raises(checks.KnownFault):
        verdict(job, model, rc, text, out)
    # Without the fault label the same output is a wrong answer.
    plain = workloads.Job("solve-care/edge", "solve-care", "edge")
    with pytest.raises(checks.WrongOutput):
        verdict(plain, model, rc, text, out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_a_tail(name):
    jobs = workloads.WORKLOADS[name](7).jobs
    assert len(jobs) >= 4 * run.TAIL_BEYOND
    assert len({job.name for job in jobs}) == len(jobs)


def test_reference_radius_power_iteration_matches_dense():
    model = models.design_model(np.random.default_rng(2), 6, 7)
    Ab = ref.closed_loop(model, None)
    assert model.L * model.n ** 2 > ref.DENSE_LIMIT
    dense = float(np.max(np.abs(np.linalg.eigvals(
        ref.lifted_matrix(Ab, model.T)))))
    assert abs(ref.lifted_radius(Ab, model.T) - dense) <= 1e-9 * dense


def _toy_package():
    """toy.a: outer() -> inner() twice; toy.b binds inner as an alias."""
    pkg = types.ModuleType("toy")
    a = types.ModuleType("toy.a")
    b = types.ModuleType("toy.b")
    exec("__all__ = ['outer', 'inner', 'boom']\n"
         "def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(inner(x))\n"
         "def boom():\n    inner(0)\n    raise ValueError('boom')\n",
         a.__dict__)
    b.__all__ = ["twice"]
    b.alias = a.inner
    exec("def twice(x):\n    return alias(x) + alias(x)\n", b.__dict__)
    return {"toy": pkg, "toy.a": a, "toy.b": b}


def test_tracer_nests_spans(monkeypatch):
    mods = _toy_package()
    for key, mod in mods.items():
        monkeypatch.setitem(sys.modules, key, mod)
    tracer = Tracer()
    tracer.install("toy", ("a", "b", "missing"),
                   {"a.inner": lambda args, result, exc: {"x": args["x"]}})
    try:
        assert mods["toy.a"].outer(1) == 3
        assert mods["toy.b"].twice(1) == 4
        with pytest.raises(ValueError):
            mods["toy.a"].boom()
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    parents = [s[PARENT] for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "a.inner",
                     "b.twice", "a.inner", "a.inner", "a.boom", "a.inner"]
    assert parents == [-1, 0, 0, -1, 3, 3, -1, 6]
    for span in tracer.spans:
        assert span[END] >= span[START]
        if span[PARENT] >= 0:
            outer = tracer.spans[span[PARENT]]
            assert outer[START] <= span[START] and span[END] <= outer[END]
    assert [tracer.counters[i]["x"] for i in (1, 2, 4, 5)] == [1, 2, 1, 1]
    stats = tracer.summary()
    assert stats["a.inner"]["calls"] == 5
    outer = tracer.spans[0]
    children = sum(s[END] - s[START] for s in tracer.spans[1:3])
    assert stats["a.outer"]["self_s"] == pytest.approx(
        outer[END] - outer[START] - children)
    # Uninstalling restores every binding, aliases included.
    assert mods["toy.b"].alias is mods["toy.a"].inner
    assert not hasattr(mods["toy.a"].inner, "__wrapped__")
    assert not hasattr(mods["toy.b"].alias, "__wrapped__")


def test_absent_function_is_reported_not_raised():
    tracer = Tracer()
    metrics = layers.per_layer_metrics(tracer.summary(), {"cli.main"}, 1)
    assert metrics["riccati.cdre_step.calls"]["value"] is None
    assert metrics["cli.self_ms"]["value"] == 0.0

"""Closed-loop benchmark of the ``mjls`` command line, one caller, in-process.

    python3 mjlsbench/run.py --workload design --seed 1 --seconds 35 --trace 0

Generates the workload's model files from ``--seed``, then runs its fixed
job list (one round) through ``mjls.cli.main`` again and again for about
``--seconds`` seconds, checking every job's artifacts against the
benchmark's own computations.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  See
README.md for the workloads and metrics.
"""

import os

# One BLAS thread: the machine has two cores and the runs must be steady.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".mjlsbench"
# Set-up is sampled this many times before the timed rounds and again after.
SETUP_SAMPLES = 3
# The tail is the highest per-job latency with this many jobs beyond it;
# every workload has at least four times as many jobs per round.
TAIL_BEYOND = 10


def measure_setup() -> list:
    """Seconds from a fresh interpreter to ``import mjls`` done, per try."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mjls"], cwd=ROOT,
                       env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_job(cli, job, model_path: Path, out: Path):
    """Run one CLI job; returns (exit code, captured output, seconds)."""
    argv = [job.command, "--model", str(model_path), "--out", str(out),
            *job.args]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the CLI must map every failure to a code
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, captured.getvalue(), elapsed


def _digest(rc, text, out: Path) -> str:
    h = hashlib.sha1(f"{rc}\0{text}".encode())
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Verifier:
    """Checks job outputs; identical bytes get the verdict already given."""

    def __init__(self, refs):
        self.refs = refs
        self.seen = {}
        self.wrong = []

    def __call__(self, job, rc, text, out: Path) -> str:
        key = (job.name, _digest(rc, text, out))
        if key not in self.seen:
            try:
                if not isinstance(rc, int):
                    raise checks.WrongOutput(rc)
                checks.CHECKS[job.command](job, rc, text, out,
                                           self.refs[job.model])
                verdict = "ok"
            except checks.KnownFault:
                verdict = "failed"
            except checks.WrongOutput as exc:
                verdict = "wrong"
                self.wrong.append(f"{job.name}: {exc}")
            self.seen[key] = verdict
        return self.seen[key]


def end_to_end(rounds, latencies, setup_s) -> dict:
    per_job = sorted(statistics.median(samples) for samples in latencies)
    metrics = {
        "wall_s": (statistics.median(rounds), "s"),
        "job_ms_p50": (1e3 * statistics.median(per_job), "ms"),
        "job_ms_tail": (1e3 * per_job[-1 - TAIL_BEYOND], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mjls" / "__init__.py").is_file():
        print(f"error: no mjls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mjls.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported mjls from {cli.__file__}", file=sys.stderr)
        return 2

    setup = measure_setup()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = OUTPUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    paths = {}
    for key, model in workload.models.items():
        paths[key] = work / "models" / f"{key}.json"
        paths[key].parent.mkdir(parents=True, exist_ok=True)
        paths[key].write_text(json.dumps(model.to_json()), encoding="utf-8")
    outs = {job.name: work / "out" / job.name.replace("/", "_")
            for job in workload.jobs}
    verify = Verifier({key: checks.References(model)
                       for key, model in workload.models.items()})
    tracer = Tracer()
    if args.trace:
        tracer.install("mjls", layers.LAYERS, layers.COUNTERS)
    try:
        # Warm-up: the first job of each subcommand, checked but not timed.
        warm = {}
        for job in workload.jobs:
            warm.setdefault(job.command, job)
        for job in warm.values():
            rc, text, _ = run_job(cli, job, paths[job.model], outs[job.name])
            verify(job, rc, text, outs[job.name])
        tracer.reset()

        rounds, latencies, failed = [], [[] for _ in workload.jobs], 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for job, samples in zip(workload.jobs, latencies):
                rc, text, elapsed = run_job(cli, job, paths[job.model],
                                            outs[job.name])
                samples.append(elapsed)
                failed += verify(job, rc, text, outs[job.name]) == "failed"
            rounds.append(sum(samples[-1] for samples in latencies))
            now = time.perf_counter()
            # Start another round only if it should end within --seconds.
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(setup + measure_setup())

    e2e = end_to_end(rounds, latencies, setup_s)
    runs = OUTPUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"jobs": [job.name for job in workload.jobs],
                   "latencies_s": latencies, "rounds_s": rounds,
                   "setup_s": setup_s, "end_to_end": e2e}, fh)
    if args.trace:
        metrics = layers.per_layer_metrics(tracer.summary(), tracer.wrapped,
                                           len(rounds))
        traces = OUTPUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": len(rounds), "end_to_end": e2e,
                     "per_layer": metrics})
    else:
        metrics = e2e
    for line in verify.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of {len(workload.jobs)} "
          f"jobs; " + ", ".join(f"{k}={v['value']:.6g}"
                                for k, v in e2e.items()), file=sys.stderr)
    print(json.dumps({"correct": not verify.wrong,
                      "attempted": len(rounds) * len(workload.jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""setnet benchmark: the paper's pipelines, run through the command line.

    python3 perfbench/run.py --workload count-train --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a pass is a fixed sequence
of in-process ``setnet.cli.main`` calls, and the next pass starts when the
previous one ends, while another pass still fits in ``--seconds`` (at least
two passes).  One process, one thread, BLAS pinned to one thread.  Inputs
are generated from ``--seed`` in set-up; the program only sees the files.

``--trace 0`` reports the end-to-end metrics (medians over passes), in
seconds scaled to a nominal host speed (see calib.py).
``--trace 1`` runs untraced passes for half the time, then one pass with
every public setnet function wrapped (see tracer.py), and reports the
per-layer metrics.  Comment lines (``#``) name the environment and every
figure with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import os

# Before numpy is first imported: one BLAS/OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import layers
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_PASSES = 2

UNITS = {
    "setup_s": "s", "wall_s": "s", "hot_per_s": "1/s", "quality_loss": "score",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s", "predict_rows_per_s": "1/s",
    "eval_ml_records_per_s": "1/s", "nms_images_per_s": "1/s",
    "eval_det_images_per_s": "1/s", "mce": "count", "mce_best_constant": "count",
    "o_f1": "score", "o_f1_loss": "score", "o_f1_fixed_best": "score",
    "det_f1": "score", "lamr": "score", "mstar_met_ratio": "ratio",
    "error_rate": "ratio", "pass_wall_s": "s", "trace_spans": "count",
    "raw_setup_s": "s", "raw_wall_s": "s", "pass_host_speed": "ratio",
    **layers.UNITS,
}


class StepFailed(Exception):
    pass


class Runner:
    """Runs CLI steps in-process and keeps the operation tally."""

    def __init__(self, main, config_dir: Path, sampler: calib.SpeedSampler) -> None:
        self.main = main
        self.config_dir = config_dir
        self.sampler = sampler
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def fail(self, label: str, message: str) -> None:
        self.failures.append((label, message))

    def write_config(self, step) -> Path:
        path = self.config_dir / f"{step.out.parent.name}.{step.out.name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(step.config), encoding="utf-8")
        return path

    def timed(self, fn) -> tuple[float, float]:
        """Calls ``fn()``; returns its raw seconds without the host-speed
        sampling, and those seconds scaled to the nominal speed."""
        mark = self.sampler.begin()
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        speed, sampling = self.sampler.end(mark)
        raw -= sampling
        return raw, raw * speed

    def run(self, step, config_path: Path) -> tuple[float, float]:
        argv = [step.command, "--config", str(config_path), "--out", str(step.out)]
        buf = io.StringIO()
        rc = 0
        self.attempted += 1

        def call() -> None:
            nonlocal rc
            if self.tracer is None:
                rc = self.main(argv)
            else:
                with self.tracer.span(f"cli.{step.command}"):
                    rc = self.main(argv)

        with contextlib.redirect_stdout(buf):
            seconds = self.timed(call)
        lines = buf.getvalue().strip().splitlines()
        payload = json.loads(lines[-1]) if lines else {}
        if rc != 0 or "code" in payload:
            self.fail(step.label, payload.get("message", f"exit code {rc}"))
            raise StepFailed(step.label)
        return seconds

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        """Wraps setnet for the block.  The sampling timer is paused, so
        only the samples at each command's start and end land outside the
        spans."""
        tracer.install()
        self.tracer = tracer
        try:
            with self.sampler.paused():
                yield
        finally:
            tracer.uninstall()
            self.tracer = None


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(runner: Runner, workload, data: Path) -> tuple[float, float]:
    """One set-up into ``data``; returns its raw and scaled seconds."""
    def build() -> None:
        fresh(data)
        for step in workload.setup_steps(data):
            runner.run(step, runner.write_config(step))
        workload.after_setup(data)
    return runner.timed(build)


@dataclass
class Pass:
    """One pass: real seconds, raw and scaled seconds, scaled step seconds."""
    elapsed: float
    raw_wall: float
    wall: float
    times: dict[str, float]


def timed_passes(runner: Runner, workload, data: Path, out: Path, seconds: float,
                 min_passes: int, digest: str | None = None):
    """Closed loop of pipeline passes; every pass must write identical bytes.

    Returns the passes and the artifact digest."""
    steps = workload.pass_steps(data, out)
    configs = [runner.write_config(s) for s in steps]
    passes: list[Pass] = []
    t_end = time.perf_counter() + seconds
    while len(passes) < min_passes or (
            time.perf_counter() + statistics.median(p.elapsed for p in passes) <= t_end):
        fresh(out)
        raw: dict[str, float] = {}
        scaled: dict[str, float] = {}
        t0 = time.perf_counter()
        for step, cfg in zip(steps, configs):
            raw[step.label], scaled[step.label] = runner.run(step, cfg)
        passes.append(Pass(time.perf_counter() - t0, sum(raw.values()),
                           sum(scaled.values()), scaled))
        d = tree_digest(out)
        if digest is None:
            digest = d
        elif d != digest:
            runner.fail(steps[0].label, f"pass {len(passes)} artifacts differ from the first")
    return passes, digest


def environment() -> str:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def end_to_end(runner: Runner, workload, work: Path, seconds: float) -> tuple[dict, dict]:
    data, out = work / "data", work / "out"
    setups, digests = [], set()
    for _ in range(SETUP_REPS):
        setups.append(setup(runner, workload, data))
        digests.add(tree_digest(data))
    if len(digests) != 1:
        runner.fail("synth", "set-up artifacts differ between repetitions")
    passes, _ = timed_passes(runner, workload, data, out, seconds, MIN_PASSES)
    quality, failures = workload.score(data, out)
    for f in failures:
        runner.fail(*f)
    rates = [workload.rates(p.times) for p in passes]
    named = {name: statistics.median(r[name] for r in rates) for name in rates[0]}
    named.update(quality)
    gated = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        **{g: named[n] for g, n in workload.headline.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
    named["raw_wall_s"] = statistics.median(p.raw_wall for p in passes)
    named["pass_wall_s"] = [round(p.wall, 6) for p in passes]
    named["pass_host_speed"] = [round(p.wall / p.raw_wall, 4) for p in passes]
    return gated, named


def per_layer(runner: Runner, workload, work: Path, seconds: float) -> tuple[dict, dict]:
    data, out = work / "data", work / "out"
    setup(runner, workload, data)
    untraced_setup = tree_digest(data)
    tracer = Tracer()
    with runner.traced(tracer):
        setup(runner, workload, data)
    if tree_digest(data) != untraced_setup:
        runner.fail("synth", "traced set-up artifacts differ from untraced")
    passes, digest = timed_passes(runner, workload, data, out, seconds / 2, 1)
    with runner.traced(tracer):
        traced, _ = timed_passes(runner, workload, data, out, 0.0, 1, digest)
    quality, failures = workload.score(data, out)
    for f in failures:
        runner.fail(*f)
    tracer.save(str(work / "spans.npz"))
    metrics = layers.layer_metrics(tracer)
    metrics["detect.mstar_met_ratio"] = quality.get("mstar_met_ratio", 0.0)
    metrics["trace.overhead_ratio"] = (
        traced[0].wall / statistics.median(p.wall for p in passes))
    return metrics, {"pass_wall_s": [round(p.wall, 6) for p in passes],
                     "trace_spans": len(tracer.span_start)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "setnet" / "__init__.py").is_file():
        print(f"perfbench: setnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from setnet import cli

    workload = WORKLOADS[args.workload](args.seed)
    work = fresh(WORK / workload.name)
    print(f"# env {environment()}")
    print(f"# workload {workload.name} seed={args.seed}")
    if not args.trace:
        print("# headline " + " ".join(f"{g}={n}" for g, n in workload.headline.items()))
    try:
        with calib.SpeedSampler() as sampler:
            runner = Runner(cli.main, work / "configs", sampler)
            run = per_layer if args.trace else end_to_end
            metrics, info = run(runner, workload, work, args.seconds)
    except StepFailed as e:
        print(f"# step failed: {e}")
        metrics, info = {}, {}
    failed = {label for label, _ in runner.failures}
    info["error_rate"] = len(failed) / max(runner.attempted, 1)
    for label, message in runner.failures:
        print(f"# FAIL {label}: {message}")
    for name, value in {**info, **metrics}.items():
        print(f"# {name} {value!r} {UNITS[name]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

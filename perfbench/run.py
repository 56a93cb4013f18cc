"""fusionsampler benchmark: drive `fusionsampler run` on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every workload run is a fresh
`python3 -m fusionsampler run` process on the checkout's src/, timed from
spawn to exit, with its artifacts checked. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: run_s (mean wall seconds of the
runs in the measuring window), samples_per_s, setup_s (median wall seconds
of a fresh interpreter that imports fusionsampler and validates the
workload's config), peak_rss_mb (median peak RSS of a run) and
artifact_bytes. failed / attempted is the failed-run ratio: a run fails
when it exits non-zero, fails its output check, or writes other bytes than
the first run of the invocation.

--trace 1 makes at least two runs under the outside-in tracer
(perfbench/tracer.py) and reports per-layer calls, rows and self seconds,
the traced predictor-call count and trace.overhead_s, the tracer's own
bookkeeping time. The call and row counts must repeat across the traced
runs, and the predictor calls must equal the analytic NFE.

--workload all runs every workload of workloads.py in turn, sample-wide
too, which BENCHMARK.json leaves out, and prints each metric with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread for this process and every child, set before numpy loads:
# the matrices here are small, and a BLAS thread pool only adds jitter.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from tracer import LAYERS, layer_table, load_trace, overhead_s  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up samples taken before each workload run, so that they are spread
# over the whole run. On a 2-vCPU VM whose vCPUs change speed by up to 1.6x
# within seconds, the medians of nine samples taken back to back ranged from
# 0.19 to 0.32 s between consecutive bursts.
SETUPS_PER_RUN = 5
TRACED_RUNS_MIN = 2
# a run of this benchmark must end within 180 s; children get what is left
DEADLINE_S = 170.0
WARMUP = ("one unmeasured import of fusionsampler in a fresh interpreter"
          " (fills the bytecode and page caches); every workload run is measured")

END_TO_END_UNITS = {"run_s": "s", "samples_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "artifact_bytes": "bytes"}

_SETUP_CODE = (
    "import json, sys\n"
    "from fusionsampler import validate_config\n"
    "with open(sys.argv[1]) as fh:\n"
    "    validate_config(json.load(fh))\n"
)


class Child:
    """Spawns one child at a time and reports its wall time and peak RSS."""

    def __init__(self, env: dict, started: float):
        self.env = env
        self.started = started

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        remaining = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(log, "wb") as err:
            begin = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


class Session:
    """One benchmark invocation on one workload."""

    def __init__(self, wl: Workload, seed: int, work: Path, child: Child):
        self.wl = wl
        self.work = work
        self.child = child
        self.config = wl.config(seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.reference: str | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.artifact_bytes = 0

    def setup(self) -> float:
        """Wall seconds of a fresh interpreter that imports fusionsampler
        and validates the config, as every CLI run does before its work."""
        argv = [sys.executable, "-c", _SETUP_CODE, str(self.config_path)]
        rc, wall, _ = self.child.run(argv, self.work / "setup.log")
        if rc != 0:
            raise RuntimeError(f"setup failed: {_tail(self.work / 'setup.log')}")
        return wall

    def workload_run(self, spans: Path | None = None) -> float:
        """One CLI run, checked; returns its wall seconds."""
        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        log = self.work / f"run{self.attempted}.log"
        cli = ["run", "--config", str(self.config_path), "--mode", self.wl.mode,
               "--out", str(out)]
        if spans is None:
            argv = [sys.executable, "-m", "fusionsampler", *cli]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *cli]
        rc, wall, rss = self.child.run(argv, log)
        problems = [f"exit code {rc}: {_tail(log)}"] if rc != 0 else []
        if not problems:
            try:
                problems = self.wl.check(str(out), self.config)
                digest, size = _digest(out)
            except (OSError, ValueError, KeyError) as err:
                problems = [f"unreadable artifacts: {type(err).__name__}: {err}"]
            else:
                if self.reference is None:
                    self.reference, self.artifact_bytes = digest, size
                elif digest != self.reference:
                    problems.append("artifact bytes differ from the first run")
        if problems:
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))
        self.walls.append(wall)
        self.rss.append(rss)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    @property
    def failed(self) -> int:
        return len(self.problems)


def _measure(session: Session, seconds: float) -> dict:
    setup = []
    begin = time.perf_counter()
    while True:
        setup += [session.setup() for _ in range(SETUPS_PER_RUN)]
        wall = session.workload_run()
        # stop before a round that would end past the measuring window
        if (time.perf_counter() - begin + wall
                + sum(setup[-SETUPS_PER_RUN:]) > seconds):
            break
    # The mean, not the median: a window holds only a few runs, and the
    # host's contention comes and goes within seconds, so the median is one
    # run's few seconds of it while the mean covers the whole window.
    run_s = statistics.fmean(session.walls)
    return {
        "run_s": run_s,
        "samples_per_s": session.wl.samples / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(session.rss),
        "artifact_bytes": session.artifact_bytes,
    }


def _measure_traced(session: Session, seconds: float) -> dict:
    wl = session.wl
    tables = []
    begin = time.perf_counter()
    while True:
        spans = session.work / "spans.json"
        wall = session.workload_run(spans)
        if spans.exists():
            trace = load_trace(spans)
            spans.unlink()
            tables.append((layer_table(trace), trace))
        # at least two traced runs, so that the count check below compares
        if (session.attempted >= TRACED_RUNS_MIN
                and time.perf_counter() - begin + wall > seconds):
            break
    if len(tables) < TRACED_RUNS_MIN:
        session.problems.append(f"{len(tables)} of {session.attempted}"
                                " traced runs produced spans")
        return {}
    counts = [{k: (v["calls"], v["rows"]) for k, v in t.items()} for t, _ in tables]
    if any(c != counts[0] for c in counts):
        session.problems.append("traced call or row counts differ between runs")
    table, trace = tables[0]
    nfe = table["predictors.predict_eps"]["calls"]
    predicted = (table["mixture.predict_eps"]["calls"]
                 + table["encoder.predict_eps"]["calls"])
    nfe_rows = table["predictors.predict_eps"]["rows"]
    if nfe != wl.nfe or predicted != wl.nfe or nfe_rows != wl.nfe * wl.batch:
        session.problems.append(
            f"traced NFE {nfe} (predictor calls {predicted}, rows {nfe_rows})"
            f" != analytic {wl.nfe} (rows {wl.nfe * wl.batch})")
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = table[layer]["calls"]
        metrics[f"{layer}.rows"] = table[layer]["rows"]
        metrics[f"{layer}.self_s"] = statistics.median(
            t[layer]["self_s"] for t, _ in tables)
    trajectories = table["sampler.sample_trajectory"]["calls"]
    oracle_calls = table["mixture.predict_eps"]["calls"]
    metrics["sampler.nfe"] = nfe
    metrics["sampler.nfe_per_trajectory"] = nfe / trajectories if trajectories else 0.0
    metrics["mixture.distinct_input_ratio"] = (
        trace["oracle_distinct"] / oracle_calls if oracle_calls else 0.0)
    metrics["artifacts.bytes"] = trace["artifact_bytes"]
    metrics["trace.overhead_s"] = statistics.median(
        overhead_s(t) for _, t in tables)
    return metrics


PER_LAYER_UNITS = {"calls": "count", "rows": "count", "self_s": "s",
                   "nfe": "count", "nfe_per_trajectory": "count",
                   "distinct_input_ratio": "ratio", "bytes": "bytes",
                   "overhead_s": "s"}


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def _blas_threads() -> int | None:
    lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(lib_dir.glob("libscipy_openblas*.so")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),  # read back; None if unreadable
        "nproc": len(os.sched_getaffinity(0)),
        "warmup": WARMUP,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 child: Child) -> tuple[dict, Session]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        session = Session(WORKLOADS[name], seed, work, child)
        session.setup()  # warm-up
        measure = _measure_traced if trace else _measure
        return measure(session, seconds), session
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fusionsampler" / "__init__.py").is_file():
        print(f"error: no fusionsampler sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "PROFUSION_OUT"}
    env["PYTHONPATH"] = str(SRC)
    child = Child(env, started)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        values, session = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), child)
        attempted += session.attempted
        failed += session.failed
        for problem in session.problems:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": _unit(key)}
            print(f"{name:14s} {key:40s} {value:>14.6g} {_unit(key)}")
        print(f"{name:14s} {'failed_ratio':40s} {session.failed:>14d}"
              f" / {session.attempted} runs")
    print(json.dumps({"env": environment()}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

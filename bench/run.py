"""Benchmark of the `exotic` command line, one seeded workload per run.

    python3 bench/run.py --workload smith-gfp --seed 1 --seconds 30 --trace 0

Every task is one `exotic ...` command, run in this process through
exoticaffine.cli.main(argv) with stdout captured and judged by the oracle
in workloads.py.  The package is imported from ../src, never from an
installed copy.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
seed, the sample counts and any failure.

--trace 0 reports the end-to-end metrics.  --trace 1 repeats the same
untraced measurement, then runs one more pass with spans around the
package's public functions (tracing.py) and reports the per-layer metrics,
including the tracing overhead; spans are written to
.bench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from oracle import OracleError, load  # noqa: E402
from tracing import MODULES, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
    ("tasks", "count"),
]
# Set-up is timed this many times before the measurement and again after
# it, so its median spans the run rather than one second of it.
SETUP_TRIALS = 5
# A CLI user pays this import on every call; it is timed in a fresh
# interpreter, so this process's own import does not hide it.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import exoticaffine.cli; "
    "print(time.perf_counter() - start)"
)


def load_package():
    """The exoticaffine modules from ../src; exits when the source is absent."""
    if not (SRC / "exoticaffine" / "cli.py").is_file():
        raise SystemExit(f"bench: no exoticaffine source under {SRC}")
    sys.path.insert(0, str(SRC))
    import exoticaffine.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"bench: imported exoticaffine from {cli.__file__}, not {SRC}")
    return {name: sys.modules[f"exoticaffine.{name}"] for name in MODULES}


def setup_trials(workload: str, seed: int, reduced: bool, trials: int):
    """Times of (fresh import of exoticaffine.cli + input generation), the
    generated tasks, and whether every trial generated the same inputs."""
    samples, argvs = [], []
    for _ in range(trials):
        probe = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        start = time.perf_counter()
        tasks = generate(workload, seed, reduced)
        samples.append(float(probe.stdout) + time.perf_counter() - start)
        argvs.append([t.argv for t in tasks])
    return samples, tasks, all(a == argvs[0] for a in argvs)


class Runner:
    """Runs tasks through cli.main and keeps their latencies and verdicts."""

    def __init__(self, cli, tasks):
        self.cli = cli
        self.tasks = tasks
        self.samples: list[list[float]] = [[] for _ in tasks]
        self.outputs: list[set[str]] = [set() for _ in tasks]
        self.fingerprints: list[set] = [set() for _ in tasks]
        self.failures: dict[str, str] = {}

    def execute(self, i: int) -> float:
        task = self.tasks[i]
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(task.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a crash is one failed task, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.judge(i, code, out.getvalue())
        return elapsed

    def judge(self, i: int, code, stdout: str):
        task = self.tasks[i]
        if code != 0:
            self.failures.setdefault(task.id, f"exit {code}: {stdout[:200]}")
            return
        if stdout in self.outputs[i]:
            return
        self.outputs[i].add(stdout)
        try:
            self.fingerprints[i].add(task.check(load(stdout)))
        except (OracleError, KeyError, TypeError, ValueError) as exc:
            self.failures.setdefault(task.id, f"{type(exc).__name__}: {exc}")

    def check_groups(self):
        """Tasks sharing a group must produce one common fingerprint."""
        groups: dict[str, set] = {}
        members: dict[str, list] = {}
        for i, task in enumerate(self.tasks):
            if task.group is not None:
                groups.setdefault(task.group, set()).update(self.fingerprints[i])
                members.setdefault(task.group, []).append(task.id)
        for group, prints in groups.items():
            if len(prints) > 1:
                for task_id in members[group]:
                    self.failures.setdefault(task_id, f"disagrees within {group}")

    def measure(self, seconds: float):
        """Time tasks for about `seconds`.

        A first pass runs every task once and fixes the number of passes:
        as many as fit, and at least two, so no task is timed only once.
        The time the passes leave over goes to the task with the least
        measured time so far, interleaved with the later passes, so short
        tasks gather many repetitions spread over the whole run."""
        n = len(self.tasks)
        acc = [0.0] * n

        def record(i) -> float:
            elapsed = self.execute(i)
            self.samples[i].append(elapsed)
            acc[i] += elapsed
            return elapsed

        def least_measured() -> int:
            return min(range(n), key=acc.__getitem__)

        start = time.perf_counter()
        pass_time = sum(record(i) for i in range(n))
        passes = max(2, int(seconds // pass_time))
        fill_per_pass = max(0.0, seconds - passes * pass_time) / (passes - 1)
        for done in range(1, passes):
            if done >= 2 and time.perf_counter() - start + pass_time > seconds:
                break
            pass_spent = fill_spent = 0.0
            for i in range(n):
                pass_spent += record(i)
                while fill_spent < fill_per_pass * min(1.0, pass_spent / pass_time):
                    fill_spent += record(least_measured())
        while time.perf_counter() - start < seconds:
            record(least_measured())

    def latencies(self) -> list[float]:
        """Per-task latency: the mean of its repetitions.

        On a shared machine the same code runs at one of two speeds, about
        1.6x apart, switching every few seconds as a neighbour comes and
        goes.  The repetitions of a task are spread over the whole run, so
        their mean moves smoothly with the share of the run spent slow.  The
        median jumps from one speed to the other when that share crosses a
        half, and the fastest repetition depends on whether a quiet moment
        fell on one of the few repetitions of a long task."""
        return [statistics.fmean(s) for s in self.samples]

    def traced_pass(self, tracer: Tracer) -> float:
        """One pass with spans; its outputs must equal the untraced ones."""
        seen = [set(o) for o in self.outputs]
        total = 0.0
        tracer.install()
        try:
            for i in range(len(self.tasks)):
                tracer.task = i
                total += self.execute(i)
        finally:
            tracer.uninstall()
        for i, task in enumerate(self.tasks):
            if self.outputs[i] != seen[i]:
                self.failures.setdefault(task.id, "tracing changed the output")
        return total


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    modules = load_package()
    setup, tasks, deterministic = setup_trials(workload, seed, reduced, SETUP_TRIALS)
    runner = Runner(modules["cli"], tasks)
    runner.measure(seconds)
    more, again, same = setup_trials(workload, seed, reduced, SETUP_TRIALS)
    deterministic = deterministic and same and [t.argv for t in again] == [t.argv for t in tasks]
    latencies = runner.latencies()
    wall_s = sum(latencies)
    if trace:
        tracer = Tracer(modules)
        traced_wall = runner.traced_pass(tracer)
        tracer.dump(ROOT / ".bench_out" / f"spans-{workload}.json",
                    {"workload": workload, "seed": seed})
    runner.check_groups()
    if trace:
        metrics = tracer.metrics(traced_wall, wall_s)
        units = per_layer_metrics()
    else:
        metrics = {
            "setup_s": statistics.median(setup + more),
            "wall_s": wall_s,
            "task_p50_ms": statistics.median(latencies) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (len(tasks) - len(runner.failures)) / len(tasks),
            "tasks": len(tasks),
        }
        units = END_TO_END
    counts = [len(s) for s in runner.samples]
    slowest = sorted(zip(latencies, (t.id for t in tasks), counts), reverse=True)[:5]
    return {
        "info": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "reduced": reduced, "python": platform.python_version(),
            "executions": sum(counts), "min_repeats": min(counts), "max_repeats": max(counts),
            "deterministic_inputs": deterministic, "failures": runner.failures,
            "slowest": [[task_id, round(s, 4), k] for s, task_id, k in slowest],
        },
        "result": {
            "correct": deterministic and not runner.failures,
            "attempted": len(tasks),
            "failed": len(runner.failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report["info"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

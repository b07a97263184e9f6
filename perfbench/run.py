"""End-to-end benchmark of the gridscore CLI, with a traced per-layer mode.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare-selections --seed 1 \\
        --seconds 25 --trace 0

The workloads are defined, with the reason for each, in ``workloads.py``.
One run:

1. builds the workload's inputs from ``--seed`` several times over, through
   the program (``gridscore gen`` as a child process, plus the ingest
   writers), and reports the median as ``setup_s``; every build must give
   byte-identical files;
2. with ``--trace 0``, runs the workload's ``gridscore`` command as a fresh
   child process, one at a time in a closed loop, for ``--seconds``
   seconds (and at least ``MIN_INVOCATIONS`` times). Each child's CPU time
   and peak RSS come from ``os.wait4``, so no other child, gen included,
   can inflate them;
3. with ``--trace 1``, calls ``gridscore.cli.main`` in this process instead,
   alternating untraced and traced calls, and reports per-layer metrics
   from the traced ones (see ``tracing.py``) and the tracing overhead.

An invocation fails if it exits non-zero, if its report fails the
workload's oracle (``oracles.py``), or if its bytes differ from the run's
first report. The sha256 of each distinct report is printed but not gated
on, so that later versions may add report lines.

The program runs single-threaded and has no queues or retries; nothing
waits except for the CPU, so no wait-time metric is reported. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Input builds per run; setup_s is their median.
SETUP_REPEATS = 3

#: Scoring invocations per run, at the least, however long they take.
MIN_INVOCATIONS = 3

#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(args: list[str], env: dict, stderr_path: Path) -> tuple[int, float, float, int]:
    """Run ``gridscore <args>`` as a child: (exit code, wall s, CPU s, maxrss KiB)."""
    with open(stderr_path, "wb") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridscore.cli", *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
            env=env, cwd=ROOT,
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def child_env() -> dict:
    """The caller's environment, importing gridscore from this checkout.

    Children may write bytecode caches, as an installed package has them,
    whatever the caller's PYTHONDONTWRITEBYTECODE says.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def gen_in_child(env: dict, directory: Path):
    def gen(args: list[str]) -> None:
        code, *_ = spawn(args, env, directory / "gen-stderr.txt")
        if code != 0:
            err = (directory / "gen-stderr.txt").read_text(errors="replace")
            raise RuntimeError(f"gridscore gen exited {code}: {err.strip()}")
    return gen


def gen_in_process(args: list[str]) -> None:
    from gridscore import cli

    code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"gridscore gen returned {code}")


def file_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.suffix in (".csv", ".conf")
    }


def build_inputs(workload, seed: int, directory: Path, gen, repeats: int):
    """Build the inputs ``repeats`` times: (scoring args, setup seconds, problems)."""
    import workloads

    draws = workload.draw(seed)
    seconds, problems, first = [], [], None
    for _ in range(repeats):
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        clock = workloads.Clock()
        args = workload.build(directory, draws, gen, clock)
        seconds.append(clock.seconds)
        digests = file_digests(directory)
        if first is None:
            first = (args, digests)
        elif (args, digests) != first:
            problems.append("input files differ between two builds from one seed")
    return args, seconds, problems


class Outcomes:
    """Counts invocations and judges each report: oracle once per distinct
    report, and byte identity with the run's first report."""

    def __init__(self, workload, directory: Path) -> None:
        self.workload, self.directory = workload, directory
        self.attempted = self.failed = 0
        self.first: bytes | None = None
        self.verdicts: dict[str, list[str]] = {}
        self.problems: list[str] = []

    def record(self, ok: bool, report: Path, note: str = "") -> None:
        self.attempted += 1
        if ok and not report.is_file():
            ok, note = False, "exit code 0 but no report written"
        problems = [note] if not ok else []
        if ok:
            data = report.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self.verdicts:
                print(f"report sha256 {digest} ({len(data)} bytes)")
                try:
                    verdict = self.workload.check(self.directory, data.decode("utf-8"))
                except (ValueError, KeyError, IndexError) as exc:
                    verdict = [f"report not readable by the oracle: {exc!r}"]
                self.verdicts[digest] = verdict
            problems = list(self.verdicts[digest])
            if self.first is None:
                self.first = data
            elif data != self.first:
                problems.append("report bytes differ from the run's first report")
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, Outcomes, list[str]]:
    """End-to-end metrics from child processes: (metrics, outcomes, set-up problems)."""
    env = child_env()
    directory = WORK / workload.name / "inputs"
    args, setup, problems = build_inputs(
        workload, seed, directory, gen_in_child(env, directory.parent), SETUP_REPEATS)
    outcomes = Outcomes(workload, directory)
    report = directory.parent / "report.txt"
    walls, cpus, rss = [], [], []
    start = perf_counter()
    while len(walls) < MIN_INVOCATIONS or perf_counter() - start < seconds:
        if report.exists():
            report.unlink()
        code, wall, cpu, maxrss = spawn(
            [*args, "--out", str(report)], env, directory.parent / "stderr.txt")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        note = "" if code == 0 else f"exit code {code}: " + (
            directory.parent / "stderr.txt").read_text(errors="replace").strip()[:300]
        outcomes.record(code == 0, report, note)
    print(f"{len(walls)} invocations, wall_s {sorted(walls)}")
    print(f"setup_s per build {setup}")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": statistics.median(setup),
    }
    return metrics, outcomes, problems


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, Outcomes, list[str]]:
    """Per-layer metrics from in-process calls: (metrics, outcomes, set-up problems)."""
    from gridscore import cli

    import tracing

    tracer = tracing.Tracer()
    directory = WORK / workload.name / "inputs"
    tracer.install()
    try:
        args, _, problems = build_inputs(workload, seed, directory, gen_in_process, 1)
    finally:
        tracer.uninstall()
    setup = tracing.setup_metrics(tracer.spans)
    trace_file = {"setup": tracer.spans, "invocations": []}

    outcomes = Outcomes(workload, directory)
    report = directory.parent / "report.txt"
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        for with_trace in (False, True):
            if report.exists():
                report.unlink()
            tracer.reset()
            if with_trace:
                tracer.install()
            note = ""
            try:
                t0 = perf_counter()
                code = cli.main([*args, "--out", str(report)])
                elapsed = perf_counter() - t0
            except Exception as exc:  # a crash is a failed invocation, not a crashed run
                code, elapsed, note = 1, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
            finally:
                tracer.uninstall()
            outcomes.record(code == 0, report, note or f"exit code {code}")
            (traced if with_trace else plain).append(elapsed)
            if with_trace:
                layers.append(tracing.invocation_metrics(tracer.spans, tracer.counters))
                trace_file["invocations"].append(tracer.spans)
    last = trace_file["invocations"][-1]
    root = next(s for s in last if s[3] == -1)
    print(f"{len(traced)} traced and {len(plain)} untraced in-process invocations")
    print(f"self time by span, last traced invocation ({root[2] - root[1]:.3f} s at the root):")
    for name, own in tracing.self_time_table(last)[:12]:
        print(f"  {name:40s} {own:10.4f} s")
    (directory.parent / "trace-spans.json").write_text(json.dumps(trace_file))

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(setup)
    untraced = statistics.median(plain)
    metrics["trace.overhead_share"] = (statistics.median(traced) - untraced) / untraced
    return metrics, outcomes, problems


def metric_units(kind: str) -> dict[str, str]:
    """name → unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args(argv)

    workload = workloads.WORKLOADS[opts.workload]
    print(f"workload {workload.name}: {workload.why}")
    run = run_traced if opts.trace else run_untraced
    metrics, outcomes, problems = run(workload, opts.seed, opts.seconds)
    units = metric_units("per_layer" if opts.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for problem in (problems + outcomes.problems)[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "gridscore" / "cli.py").is_file():
        print(f"perfbench: error: no gridscore sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

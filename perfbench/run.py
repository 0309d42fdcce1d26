"""Benchmark harness for the cwilf command line.

    python3 perfbench/run.py --workload avoid-deep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 120 --trace 1
    python3 perfbench/run.py --record-reference

Each sample runs the workload's `cwilf count` command in a fresh interpreter
against the package under src/ of this checkout: interpreter start, imports
and cache warm-up are paid on every call, as a user pays them.  The loop is
closed with one client: the next process starts only after the previous one
has exited, so one of the two cores stays free for this harness.  With
`--workload all` the workloads take turns, one process each per round, so
drift of the host falls on all of them alike.

--trace 0 reports the end-to-end metrics.  Each round runs, one after the
other, `calibrate.py` (a fixed computation that measures the host's current
speed), the workload, and a bare set-up process (interpreter,
`import cwilf.cli`, `build_parser()`, no query), so drift falls on all three
alike.  The bounded times are the workload's divided by the calibration's.

--trace 1 reports the per-layer metrics: each round runs the command once
untraced and once under `layertrace.py`.  Before timing, it checks the
tracer's counters against closed forms on tiny inputs.

Every run's stdout is checked exactly (see workloads.py), also under the
tracer.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  The lines before it give the sample counts, quartiles,
the failure rate and the host context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import layertrace
from workloads import (REFERENCE, WORKLOADS, Workload, exact_errors, load_reference,
                       output_errors, reference_key)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "cwilf" / "cli.py"

SETUP_CODE = "import cwilf.cli as cli; cli.build_parser(); print(cli.__file__)"
MAIN_CODE = "import sys; from cwilf.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120.0

# The bounded end-to-end metrics (BENCHMARK.json); the raw times are printed too.
END_TO_END = ("wall_rel", "cpu_rel", "peak_rss_mb", "setup_s")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits_max") else "count"


# -- child processes ------------------------------------------------------------

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CWILF_CAP", None)
    return env


def run_child(cmd: list[str]) -> Child:
    """Run one process to completion; wall time, rusage and both streams."""
    chunks: dict[int, list[bytes]] = {1: [], 2: []}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, 1)
        sel.register(proc.stderr, selectors.EVENT_READ, 2)
        while sel.get_map():
            remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                proc.kill()
            for key, _ in sel.select(timeout=max(remaining, 1.0)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.data].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, b"".join(chunks[1]), b"".join(chunks[2]))


# -- host context -----------------------------------------------------------------

def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    # the benchmark may run from an export that is not a git checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- closed-form checks of the tracer's counters ---------------------------------------

def counter_errors() -> list[str]:
    """Run tiny inputs under the tracer; its counts must match closed forms.

    With no forbidden or tracked pattern the positive table at size n holds
    (k-1)! * C(n, k-1) cells; the cluster table of a monotone pattern holds
    one state per level; one ring expression makes two arithmetic calls; one
    oracle call counts once.
    """
    sys.path.insert(0, str(SRC))
    import cwilf
    from cwilf import cluster_dp, permcore, positive_dp, weightring

    def probe(thunk) -> layertrace.Tracer:
        tracer = layertrace.Tracer()
        tracer.install(cwilf)
        try:
            thunk()
        finally:
            tracer.uninstall()
        return tracer

    k, top = 4, 9
    all_one = weightring.PatternAssignment.all_one
    errors = []
    t = probe(lambda: positive_dp.enumerate_series(k, all_one(k), top))
    expected = [math.factorial(k - 1) * math.comb(n, k - 1) for n in range(k - 1, top + 1)]
    if t.positive_levels != expected or t.metrics()["positive_dp.steps"] != top - k + 1:
        errors.append(f"positive cells per level {t.positive_levels}, expected {expected}")
    t = probe(lambda: cluster_dp.cluster_values((1, 2, 3), 20, 0))
    if t.cluster_levels != [1] * 18:
        errors.append(f"cluster states per level {t.cluster_levels}, expected 18 x 1")
    t = probe(lambda: weightring.WeightPoly.variable(0, 1) * 2 + 1)
    if t.metrics()["weightring.arith_calls"] != 2 or t.poly_new < 1:
        errors.append(f"weight-ring counters {t.metrics()['weightring.arith_calls']} calls, "
                      f"{t.poly_new} constructions, expected 2 calls")
    t = probe(lambda: permcore.brute_weight_enum(4, 4, all_one(4)))
    if t.metrics()["permcore.oracle_calls"] != 1:
        errors.append("oracle call not counted")
    return errors


# -- the measurement loop ---------------------------------------------------------

@dataclass
class Tally:
    workload: Workload
    argv: list[str]
    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    calibration_cpu_s: list[float] = field(default_factory=list)
    main_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, child: Child, problems: list[str]) -> None:
        self.failed += 1
        detail = problems or [f"exit {child.returncode}: "
                              + child.stderr.decode(errors="replace").strip()[-300:]]
        self.errors.append(f"{what}: {'; '.join(detail)}")


def _setup_round(tally: Tally) -> None:
    child = run_child([sys.executable, "-c", SETUP_CODE])
    tally.attempted += 1
    path = child.stdout.decode(errors="replace").strip()
    if child.returncode or Path(path).resolve() != CLI_FILE.resolve():
        tally.fail("setup", child, [] if child.returncode else [f"imported {path}"])
    else:
        tally.setup_s.append(child.wall_s)


def _calibration_round(tally: Tally) -> None:
    child = run_child([sys.executable, str(HERE / "calibrate.py")])
    tally.attempted += 1
    if child.returncode or child.stdout.strip() != str(calibrate.CHECKSUM).encode():
        tally.fail("calibration", child, [] if child.returncode else ["wrong checksum"])
    else:
        tally.calibration_s.append(child.wall_s)
        tally.calibration_cpu_s.append(child.cpu_s)


def _main_round(tally: Tally, reference: dict[str, str]) -> bytes | None:
    child = run_child([sys.executable, "-c", MAIN_CODE, *tally.argv])
    tally.attempted += 1
    problems = [] if child.returncode else output_errors(
        tally.workload, tally.argv, child.stdout, reference)
    if child.returncode or problems:
        tally.fail("run", child, problems)
        return None
    tally.wall_s.append(child.wall_s)
    tally.cpu_s.append(child.cpu_s)
    tally.peak_rss_mb.append(child.rss_mb)
    return child.stdout


def _traced_round(tally: Tally, reference: dict[str, str], untraced: bytes | None) -> None:
    child = run_child([sys.executable, str(HERE / "layertrace.py"), *tally.argv])
    tally.attempted += 1
    problems = [] if child.returncode else output_errors(
        tally.workload, tally.argv, child.stdout, reference)
    if untraced is not None and child.stdout != untraced:
        problems.append("traced stdout differs from untraced stdout")
    lines = child.stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(layertrace.TRACE_PREFIX):
        problems.append("no trace summary")
    if child.returncode or problems:
        tally.fail("traced run", child, problems)
        return
    summary = json.loads(lines[-1][len(layertrace.TRACE_PREFIX):])
    tally.main_s.append(summary["main_s"])
    tally.layers.append(summary["metrics"])


def measure(names: list[str], seed: int, seconds: float, trace: bool) -> list[Tally]:
    reference = load_reference()
    tallies = [Tally(WORKLOADS[n], WORKLOADS[n].argv(seed)) for n in names]
    _setup_round(tallies[0])  # untimed: compiles bytecode, warms the file cache
    tallies[0].setup_s.clear()
    if trace:
        problems = counter_errors()
        if problems:
            for tally in tallies:
                tally.errors += [f"counter check: {p}" for p in problems]
    deadline = time.perf_counter() + seconds
    while True:
        for tally in tallies:
            if trace:
                _traced_round(tally, reference, _main_round(tally, reference))
            else:
                _calibration_round(tally)
                _main_round(tally, reference)
                _setup_round(tally)
        if time.perf_counter() >= deadline:
            return tallies


# -- reporting --------------------------------------------------------------------

def _stats(values: list) -> tuple[float, int, float, float]:
    """Median, sample count, first and third quartile."""
    if len(set(values)) < 2:
        v = values[0] if values else 0.0
        return v, len(values), v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), len(values), q1, q3


# A report row: value, unit, how it was formed, number of samples behind it.
Row = tuple[float, str, str, int]


def _median_row(values: list[float], unit: str) -> Row:
    median, count, q1, q3 = _stats(values)
    return median, unit, f"median of {count} (q1 {q1:.6g}, q3 {q3:.6g})", count


def end_to_end(tally: Tally) -> dict[str, Row]:
    """Times relative to the calibration process of the same run, and raw.

    Host speed drifts by tens of percent over minutes; the calibration
    process drifts with it, so the ratios are steadier than the raw times.
    """
    wall = _median_row(tally.wall_s, "s")
    cpu = _median_row(tally.cpu_s, "s")
    cal = _median_row(tally.calibration_s, "s")
    cal_cpu = _median_row(tally.calibration_cpu_s, "s")

    def relative(num: Row, den: Row, what: str) -> Row:
        return (num[0] / den[0] if den[0] else 0.0, "ratio",
                f"median {what} / its median for calibrate.py", min(num[3], den[3]))

    return {
        "wall_rel": relative(wall, cal, "wall time"),
        "cpu_rel": relative(cpu, cal_cpu, "CPU time"),
        "peak_rss_mb": _median_row(tally.peak_rss_mb, "MB"),
        "setup_s": _median_row(tally.setup_s, "s"),
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": cal,
    }


def per_layer(tally: Tally) -> tuple[dict[str, Row], list[str]]:
    """Medians of the traced runs' times; counts must repeat exactly."""
    rows, problems = {}, []
    for name in layertrace.METRICS:
        values = [layers[name] for layers in tally.layers]
        unit = per_layer_unit(name)
        if unit == "s":
            rows[name] = _median_row(values, unit)
            continue
        if len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(set(values))}")
        rows[name] = (values[0] if values else 0, unit,
                      f"same in all {len(values)} traced runs", len(values))
    wall = statistics.median(tally.wall_s) if tally.wall_s else 0.0
    rows["trace.overhead"] = _median_row([m / wall for m in tally.main_s] if wall else [],
                                         "ratio")
    return rows, problems


def report(tallies: list[Tally], trace: bool, host: dict) -> dict:
    print("host " + json.dumps(host))
    gated = (*layertrace.METRICS, "trace.overhead") if trace else END_TO_END
    prefix = len(tallies) > 1
    metrics = {}
    correct = True
    for tally in tallies:
        if trace:
            rows, problems = per_layer(tally)
            tally.errors += problems
        else:
            rows = end_to_end(tally)
        print(f"{tally.workload.name}: cwilf {' '.join(tally.argv)}")
        for name, (value, unit, note, count) in rows.items():
            print(f"  {name:<26} {value:>14.6g} {unit:<5} {note}")
            if name in gated:
                metrics[f"{tally.workload.name}.{name}" if prefix else name] = {
                    "value": value, "unit": unit}
                correct = correct and count > 0
        print(f"  {'fail_rate':<26} {tally.failed / tally.attempted:>14.6g} "
              f"{'':<5} {tally.failed} of {tally.attempted} runs")
        for error in tally.errors[:5]:
            print(f"  error: {error}")
        correct = correct and not tally.errors
    return {"correct": correct,
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": metrics}


def record_reference() -> int:
    """Write reference.json from the current program: one digest per variant."""
    digests = {}
    for workload in WORKLOADS.values():
        for seed in range(len(workload.variants)):
            argv = workload.argv(seed)
            child = run_child([sys.executable, "-c", MAIN_CODE, *argv])
            problems = exact_errors(workload, argv, child.stdout) if not child.returncode \
                else [child.stderr.decode(errors="replace")]
            if problems:
                print(f"{reference_key(argv)}: {problems}", file=sys.stderr)
                return 1
            digests[reference_key(argv)] = hashlib.sha256(child.stdout).hexdigest()
            print(f"{reference_key(argv)}: {len(child.stdout)} bytes, {child.wall_s:.2f} s")
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program and exit")
    args = parser.parse_args(argv)
    if not CLI_FILE.is_file():
        print(f"error: {CLI_FILE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": _git_commit(), "loadavg_start": _loadavg()}
    steal = _steal_ticks()
    tallies = measure(names, args.seed, args.seconds, bool(args.trace))
    steal_end = _steal_ticks()
    host["loadavg_end"] = _loadavg()
    host["steal_s"] = (steal_end - steal) / os.sysconf("SC_CLK_TCK") \
        if steal is not None and steal_end is not None else None
    result = report(tallies, bool(args.trace), host)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

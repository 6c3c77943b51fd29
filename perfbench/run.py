"""Benchmark of the paper commands, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload robustness --seed 2012 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--seed N] [--out results.json]

``--trace 0`` times the workload's ``python -m repro`` command as a
subprocess, with tracing off, repeated back to back for ``--seconds``, and
reports the end-to-end metrics (medians over the repeats). Each time is
in reference seconds: divided by the host's slowness, timed between the
commands by ``calibrate.py``; the raw medians print beside them. ``--trace 1``
runs the same command in process three times: once plain, twice with the
layer wrappers of ``layers.py`` installed. It checks that the traced runs
print what the plain one printed and repeat their counts exactly, then
reports the per-layer metrics of the first traced run. ``--all`` does
both for every workload and prints one combined table.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Every command output
is checked by ``check.py``; a failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibrate import HostSpeed
from check import check_output, load_references, stored_stdout
from workloads import DEFAULT_SEED, WORKLOADS, setup_code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 3
#: Longest a single invocation may take before it is killed and failed.
INVOCATION_LIMIT_S = 60.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict[str, str]:
    """The environment of every command: this checkout's sources only,
    and no ``REPRO_*`` setting (workers, tracing, run dirs) from outside."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def env_stamp() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        # The ceiling keeps git from searching above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- end to end


@dataclass(frozen=True)
class Invocation:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def invoke(argv: list[str]) -> Invocation:
    """Run one command to completion; time it and take its rusage.

    ``wait4`` returns the rusage of the child together with every
    descendant it reaped (pool workers), so ``cpu_s`` covers the whole
    process tree and ``peak_rss_mb`` is the largest process's peak.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
    killer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Invocation(
        returncode=proc.returncode,
        stdout=out,
        stderr=err[0] if err else "",
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def end_to_end(
    name: str, seed: int, seconds: float, tally: Tally
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Median end-to-end metrics of ``seconds`` of back-to-back commands.

    The driver and its commands keep to the workload's first CPUs, where
    ``calibrate.py`` times the host between commands; each command's times
    are divided by the host's slowness around it.
    """
    workload = WORKLOADS[name]
    refs = load_references()
    python = sys.executable
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workload.cpus])
    host = HostSpeed()

    setups, setup_factors = [], []
    for k in range(SETUP_REPEATS):
        inv = invoke([python, "-c", setup_code(name, seed)])
        factor = host.after_command()
        if tally.record(f"setup {k}", [] if inv.returncode == 0 else [
            f"exit status {inv.returncode}: {inv.stderr.strip()[-300:]}"
        ]):
            setups.append(inv)
            setup_factors.append(factor)

    command = [python, "-m", "repro", *workload.command(seed)]
    runs: list[Invocation] = []
    factors: list[float] = []
    started = perf_counter()
    cycle = 0.0
    # Repeat while the next invocation and reference job, expected to take
    # as long as the last ones, still end within ``seconds``; run at least
    # once.
    while not runs or perf_counter() - started + cycle <= seconds:
        t0 = perf_counter()
        inv = invoke(command)
        factor = host.after_command()
        problems = check_output(
            workload.reference, seed, inv.returncode, inv.stdout, refs
        )
        if tally.record(f"run {tally.attempted}", problems):
            runs.append(inv)
            factors.append(factor)
        elif tally.failed >= 3:
            break
        cycle = perf_counter() - t0
    if workload.same_stdout_as is not None and runs:
        twin = WORKLOADS[workload.same_stdout_as]
        expected = stored_stdout(refs, twin.name, seed)
        if expected is None:
            # No stored output at this seed: run the twin command once.
            inv = invoke([python, "-m", "repro", *twin.command(seed)])
            tally.record(f"{twin.name} twin", check_output(
                twin.reference, seed, inv.returncode, inv.stdout, refs
            ))
            expected = inv.stdout
        tally.record(f"same stdout as {twin.name}", [
            f"stdout of run {i} differs from `repro {' '.join(twin.argv)}`"
            for i, r in enumerate(runs)
            if r.stdout != expected
        ])

    def med(values: list[float]) -> float:
        return statistics.median(values) if values else float("nan")

    detail = {
        "wall_s": [r.wall_s / f for r, f in zip(runs, factors)],
        "cpu_s": [r.cpu_s / f for r, f in zip(runs, factors)],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": [r.wall_s / f for r, f in zip(setups, setup_factors)],
        "raw_wall_s": [r.wall_s for r in runs],
        "raw_setup_s": [r.wall_s for r in setups],
        "slowness": factors,
    }
    return {key: med(values) for key, values in detail.items()}, detail


# ----------------------------------------------------------------- traced run


def _run_cli(main, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), perf_counter() - t0


def _repeats(metric: str, unit: str) -> bool:
    """Counts of work, which two traced runs at one seed repeat exactly."""
    return unit in ("count", "bytes") or metric == "faults.wasted_frac"


def traced(name: str, seed: int, tally: Tally) -> tuple[dict, list, dict]:
    workload = WORKLOADS[name]
    refs = load_references()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import repro.cli

    cli_import = perf_counter() - t0
    import layers

    argv = workload.command(seed)
    code, plain, plain_wall = _run_cli(repro.cli.main, argv)
    tally.record("plain run", check_output(
        workload.reference, seed, code, plain, refs
    ))
    outcomes = []
    for k in range(2):
        layers.install()
        rec = layers.reset()
        try:
            code, out, wall = _run_cli(repro.cli.main, argv)
        finally:
            left = layers.uninstall()
        metrics, table = layers.analyse(rec, wall)
        problems = check_output(workload.reference, seed, code, out, refs)
        if out != plain:
            problems.append("traced stdout differs from the plain run's")
        if left:
            problems.append("wrappers left installed: " + ", ".join(left))
        tally.record(f"traced run {k}", problems)
        outcomes.append((rec, wall, metrics, table))

    (rec, wall, metrics, table), (_, wall_b, metrics_b, _) = outcomes
    tally.record("count repeat", [
        f"{m} {v} != {metrics_b[m][0]} in the second traced run"
        for m, (v, unit) in metrics.items()
        if _repeats(m, unit) and v != metrics_b[m][0]
    ])
    metrics["cli.import_s"] = (cli_import, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median([wall, wall_b]) / plain_wall - 1.0, "ratio"
    )
    layers.write_spans(rec, SPANS_DIR / f"spans-{name}-{seed}.jsonl.gz")
    extra = {"plain_wall_s": plain_wall, "traced_wall_s": [wall, wall_b]}
    return metrics, table, extra


# ------------------------------------------------------------------- output


def _number(value: float) -> float | None:
    """A metric value for JSON: ``None`` when nothing was measured."""
    return None if math.isnan(value) else value


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_metrics(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(f"\n{title}")
    width = max(len(r[0]) for r in rows)
    for metric, value, unit, note in rows:
        print(f"  {metric:<{width}}  {_fmt(value):>12} {unit:<6} {note}")


def print_layers(name: str, table: list, wall: float) -> None:
    print(f"\nlayers of {name} (self time summed over processes; "
          f"share of trace.wall_s = {_fmt(wall)} s)")
    print(f"  {'layer':<15} {'self_s':>10} {'share':>8} {'spans':>10}")
    for layer, self_s, share, calls in table:
        print(f"  {layer:<15} {self_s:>10.4f} {share:>8.1%} {calls:>10}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    stamp = env_stamp()
    tally = Tally()
    print(f"workload {name}: repro {' '.join(WORKLOADS[name].command(seed))}"
          f"  (trace {int(trace)})")
    if trace:
        measured, table, extra = traced(name, seed, tally)
        values = {m: v for m, (v, _) in measured.items()}
        print_layers(name, table, values["trace.wall_s"])
        notes = {}
    else:
        values, detail = end_to_end(name, seed, seconds, tally)
        extra = {"samples": detail}
        notes = {m: f"median of {len(v)}: " + ", ".join(map(_fmt, v))
                 for m, v in detail.items()}
    rows = [(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
            for m in declared]
    if not trace:
        # Undeclared: the raw times and the host slowness that divided them.
        rows += [(m, values[m], unit, notes[m]) for m, unit in (
            ("raw_wall_s", "s"), ("raw_setup_s", "s"), ("slowness", "ratio"),
        )]
    print_metrics(f"{'per-layer' if trace else 'end-to-end'} metrics of {name}",
                  rows)
    error_rate = (tally.failed / tally.attempted) if tally.attempted else 1.0
    print(f"  {'error_rate':<12} {_fmt(error_rate):>12} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    stamp["loadavg_end"] = list(os.getloadavg())
    print("env: " + json.dumps(stamp))
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": stamp,
        "extra": extra,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]}
                for m in declared
            },
        },
    }


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload, end to end and traced, each in its own process."""
    records = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--record"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            try:
                records.append(json.loads(lines[-2]))
            except (IndexError, ValueError):
                print(proc.stderr, file=sys.stderr)
                return 1
    spec = _spec()
    print(f"\nall workloads at seed {seed}")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"  {'workload':<11}" + "".join(f"{n:>14}" for n in names)
          + f"{'error_rate':>12}")
    for rec in records:
        if rec["trace"]:
            continue
        res = rec["result"]
        print(f"  {rec['workload']:<11}"
              + "".join(f"{_fmt(res['metrics'][n]['value']):>14}" for n in names)
              + f"{_fmt(res['failed'] / res['attempted']):>12}")
    if out is not None:
        out.write_text(json.dumps(records, indent=1) + "\n")
        print(f"wrote {out}")
    ok = all(r["result"]["correct"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    attempted = sum(r["result"]["attempted"] for r in records)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, end to end and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with --all: write every record to this file")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, args.out)
    record = run_one(args.workload, args.seed, seconds, bool(args.trace))
    if args.record:
        print(json.dumps(record))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

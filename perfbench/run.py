"""End-to-end and per-layer benchmark of the `trilinear` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload wigner-ref --seed 1 --seconds 35 --trace 0

One process runs the CLI at a time, in a closed loop, until the next run
would end past `--seconds` (at least one run). Each run is a fresh
interpreter hosting `trilinear.cli.main` (perfbench/child.py) with `--seed`
passed through and its output written to a temporary directory.

End-to-end metrics (`--trace 0`), medians over the runs of one invocation:

- run_s: the subcommand's runner, from a loaded config to the CSV written.
- setup_s: process start until the runner is entered (interpreter,
  `import trilinear`, config parse and validate); the median over several
  set-up-only starts and the measured runs.
- peak_rss_mb: ru_maxrss of the run's process.
- oracle_err: max |W_exact - wigner_oracle| over the grid on the Wigner
  workloads; |f_fit / (2 sqrt(2) xi) - 1| of a cosine fit to the exact
  p_axial column on oscillate-holds.
- step_halving_err: max change of the exact output columns when the step
  is halved (see workloads.py).

`--trace 1` alternates untraced and traced runs and reports per-layer spans
and counters of the traced ones (see spans.py), plus bench.trace_overhead_s,
the traced runner time minus the untraced run_s.

A run fails when the CLI exits non-zero, the CSV schema or row count is
wrong, oracle_err exceeds the acceptance tolerance, or the oscillation fit
did not converge or misses 2 sqrt(2) xi by more than 0.5%. Data rows must be
byte-identical across runs at one seed, and across invocations in the same
checkout a new seed must change the sampled columns and nothing else.

The last line of stdout is the JSON result; the line before it records the
machine and every run's set-up and run time. Everything is read and written
below the working directory; `.perfbench/` holds temporary output and the
per-source caches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# Small dense blocks dominate every workload; one BLAS thread keeps the
# timings steady and stays within any core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0  # whole invocation

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "oracle_err": "1",
    "step_halving_err": "1",
}

# per-layer metric -> (span name, field of the span summary)
SPAN_METRICS = {
    "config.parse_s": ("config.parse", "total_s"),
    "dynamics.sweep_s": ("dynamics.sweep", "total_s"),
    "dynamics.apply_s": ("dynamics.apply", "total_s"),
    "dynamics.apply_calls": ("dynamics.apply", "calls"),
    "protocols.wigner_scan_s": ("protocols.wigner_scan", "total_s"),
    "protocols.scan_self_s": ("protocols.wigner_scan", "self_s"),
    "protocols.adiabatic_parity_s": ("protocols.adiabatic_parity", "total_s"),
    "protocols.adiabatic_parity_calls": ("protocols.adiabatic_parity", "calls"),
    "protocols.embedding_s": ("protocols.embedding", "total_s"),
    "protocols.readout_s": ("protocols.readout", "total_s"),
    "protocols.readout_calls": ("protocols.readout", "calls"),
    "protocols.sampling_s": ("protocols.sampling", "total_s"),
    "protocols.sampling_calls": ("protocols.sampling", "calls"),
    "protocols.oscillation_s": ("protocols.oscillation", "total_s"),
    "fock.guard_leak_s": ("fock.guard_leak", "total_s"),
    "fock.guard_leak_calls": ("fock.guard_leak", "calls"),
    "report.write_csv_s": ("report.write_csv", "total_s"),
    "cli.runner_s": ("cli.runner", "total_s"),
}
# per-layer metrics read straight from the tracer's counters
COUNT_METRICS = ("dynamics.sweep_sectors", "dynamics.sweep_steps",
                 "dynamics.eigh_calls", "report.rows", "report.bytes")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_sector_step"):
        return "us"
    return "count"


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def source_hash(src: Path) -> str:
    """Hash of the package and benchmark sources, the key of every cache."""
    h = hashlib.sha256()
    for base in (src, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(src_hash: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout; source_sha256 identifies the code
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "source_sha256": src_hash,
    }


def write_json(path: Path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


class Runner:
    """Spawns child.py processes for one workload and seed."""

    def __init__(self, root: Path, workload, seed: int, deadline: float):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        base = root / ".perfbench" / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, config: dict, *, trace=False, setup_only=False) -> dict:
        """One CLI run in a child process: its report, exit code, output,
        set-up time (spawn to runner entry) and runner time."""
        import yaml

        self.count += 1
        run_dir = self.tmp / f"run{self.count}"
        run_dir.mkdir()
        argv = [self.workload.command, "--seed", str(self.seed),
                "--out", str(run_dir / "out")]
        if config:
            (run_dir / "config.yaml").write_text(yaml.safe_dump(config))
            argv += ["--config", str(run_dir / "config.yaml")]
        spec = {"argv": argv, "result": str(run_dir / "report.json"),
                "src": str(self.src), "trace": trace, "setup_only": setup_only}
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=run_dir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        run = {"code": proc.returncode, "stdout": proc.stdout}
        report = run_dir / "report.json"
        if proc.returncode != 0 or not report.is_file():
            run["error"] = (f"exit code {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            return run
        run.update(json.loads(report.read_text()))
        run["setup_s"] = run["enter"] - t0
        run["run_s"] = run["exit"] - run["enter"]
        csv_path = run_dir / "out" / self.workload.csv_name
        if not setup_only:
            run["csv"] = csv_path.read_text() if csv_path.is_file() else None
        return run


def load_reference(runner: Runner, cache_dir: Path, src_hash: str) -> dict:
    w = runner.workload
    path = cache_dir / f"reference-{src_hash[:24]}-{w.name}.json"
    if path.is_file():
        return json.loads(path.read_text())
    half = runner.spawn(workloads.halved_step_config(w))
    if half.get("error") or not half.get("csv"):
        raise RuntimeError(f"halved-step reference run failed: {half.get('error')}")
    ref = workloads.compute_reference(w, half["csv"])
    write_json(path, ref)
    return ref


def seed_history_problem(cache_dir: Path, src_hash: str, workload, seed: int,
                         checked) -> str:
    """Across invocations: the same seed reproduces the data rows; another
    seed changes them, but not the seed-independent columns."""
    path = cache_dir / f"seeds-{src_hash[:24]}-{workload.name}.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    rows = hashlib.sha256(checked.data_rows.encode()).hexdigest()
    exact = hashlib.sha256(checked.exact_rows.encode()).hexdigest()
    for other, (other_rows, other_exact) in history.items():
        if int(other) == seed and other_rows != rows:
            return f"seed {seed} data rows differ from an earlier invocation"
        if int(other) != seed and other_exact != exact:
            return f"exact columns differ between seeds {other} and {seed}"
        if int(other) != seed and other_rows == rows:
            return f"seeds {other} and {seed} give identical sampled columns"
    history[str(seed)] = [rows, exact]
    write_json(path, history)
    return ""


def layer_metrics(traced: list[dict], problems: list[str]) -> dict:
    """Medians over the traced runs of every per-layer metric."""
    per_run = []
    for run in traced:
        summary = run["trace"]
        layers, counts = summary["layers"], summary["counts"]
        row = {name: layers.get(span, {}).get(field, 0)
               for name, (span, field) in SPAN_METRICS.items()}
        row.update({name: counts.get(name, 0) for name in COUNT_METRICS})
        sector_steps = counts.get("dynamics.sweep_sector_steps", 0)
        row["dynamics.sweep_us_per_sector_step"] = (
            1e6 * row["dynamics.sweep_s"] / sector_steps if sector_steps else 0.0)
        # only config handling may run outside the runner, and the self times
        # of the spans inside it must add up to the runner's span
        if set(summary["roots"]) - {"config.parse", "cli.runner"}:
            problems.append(f"spans outside the runner: {sorted(set(summary['roots']))}")
        self_sum = sum(v["self_s"] for k, v in layers.items() if k != "config.parse")
        if abs(self_sum - row["cli.runner_s"]) > 1e-6 * max(1.0, row["cli.runner_s"]):
            problems.append(f"self times sum to {self_sum:.6f} s, the runner "
                            f"took {row['cli.runner_s']:.6f} s")
        per_run.append(row)
    return {name: median([row[name] for row in per_run]) for name in per_run[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "trilinear" / "cli.py").is_file():
        print("perfbench: no trilinear sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]
    cache_dir = root / ".perfbench" / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    src_hash = source_hash(src)

    runner = Runner(root, workload, args.seed, start + DEADLINE_S)
    problems: list[str] = []
    runs: list[dict] = []
    try:
        runner.spawn(workload.config, setup_only=True)  # warm the import caches
        probes = [] if args.trace else [
            runner.spawn(workload.config, setup_only=True)
            for _ in range(SETUP_PROBES)]
        problems += [p["error"] for p in probes if "error" in p]
        try:
            ref = load_reference(runner, cache_dir, src_hash)
        except Exception:  # noqa: BLE001 -- report it; every run then fails
            problems.append("no accuracy reference:\n" + traceback.format_exc())
            ref = None

        loop_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            run = runner.spawn(workload.config, trace=traced)
            run["traced"] = traced
            run["checked"] = None
            if "error" in run:
                reason = run["error"]
            elif run["csv"] is None:
                reason = f"{workload.csv_name} was not written"
            elif ref is None:
                reason = "no accuracy reference to check against"
            else:
                run["checked"] = workloads.check(workload, run["csv"],
                                                 run["stdout"], ref)
                reason = run["checked"].reason
            run["failed"] = bool(reason)
            if reason:
                problems.append(f"run {len(runs) + 1}: {reason}")
            runs.append(run)
            elapsed = perf_counter() - loop_start
            enough = len(runs) >= (2 if args.trace else 1)
            if run.get("error") == "timed out" or (
                    enough and elapsed * (len(runs) + 1) / len(runs) > args.seconds):
                break
    finally:
        runner.close()

    checked = [r for r in runs if r["checked"]]
    first = checked[0]["checked"] if checked else None
    for r in checked[1:]:
        if r["checked"].data_rows != first.data_rows:
            r["failed"] = True
            problems.append("data rows differ between runs at one seed")
    if first is not None:
        problem = seed_history_problem(cache_dir, src_hash, workload, args.seed, first)
        if problem:
            problems.append(problem)

    nan = float("nan")
    plain = [r for r in runs if not r["traced"] and "run_s" in r]
    if args.trace:
        traced = [r for r in runs if r["traced"] and r.get("trace")]
        if not traced:
            problems.append("no traced run completed")
        values = layer_metrics(traced, problems) if traced else {}
        values["protocols.flag_leak"] = first.flags[0] if first else nan
        values["protocols.flag_diabatic"] = first.flags[1] if first else nan
        values["bench.trace_overhead_s"] = (
            values.get("cli.runner_s", nan) - median([r["run_s"] for r in plain]))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {
            "run_s": median([r["run_s"] for r in plain]),
            "setup_s": median([p["setup_s"] for p in probes if "setup_s" in p]
                              + [r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["maxrss_mb"] for r in plain]),
            "oracle_err": first.oracle_err if first else nan,
            "step_halving_err": first.step_halving_err if first else nan,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    info = {"machine": machine_record(src_hash), "workload": workload.name,
            "seed": args.seed, "wall_s": perf_counter() - start,
            "runs": [{k: r.get(k) for k in ("traced", "failed", "setup_s", "run_s")}
                     for r in runs]}
    if args.trace and traced:
        info["wrapped"] = traced[0]["trace"]["patched"]
        info["not_traced"] = traced[0]["trace"]["missing"]
    print(json.dumps(info))
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Ensemble benchmark for ``roomchan mc``.

Usage, from the repository root:

    python3 perfbench/run.py --workload iso-120ns --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's ``roomchan mc ... --check --threads 2``
command, each time in a fresh interpreter with the same master seed, until
the repetitions have taken ``--seconds``, and reports the end-to-end metrics
as medians over the repetitions. The first repetition also runs the output checks.
``--trace 1`` runs the command once at two workers with the checks, once at
one worker, and once at one worker with spans around every layer, and
reports the per-layer metrics. Every metric is printed by name and unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_count  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
WORKERS = 2
# Held at one thread per process so that the worker count alone sets the
# parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Span names of tracing.install whose self time is a per-layer metric.
SELF_TIMED = (
    "antenna.sample", "antenna.gate", "geometry.enumerate", "channel.enumerate",
    "channel.count", "channel.moments", "channel.synth", "montecarlo.ensemble",
    "montecarlo.compare", "theory", "montecarlo.bundle", "config.load",
)

END_TO_END = (
    ("runs_per_s", "runs/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Run:
    """State of one benchmark invocation: repetitions, checks, op counts."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.config = out_dir / "config.json"
        self.config.write_text(json.dumps(self.spec["doc"]), encoding="utf-8")
        self.started = time.monotonic()
        self.reps: list[dict] = []
        self.checks: list[list] = []
        self.attempted = 0
        self.failed = 0

    def repetition(self, threads: int, trace: bool = False, checks: bool = False) -> dict:
        """Run the ``mc`` command once in a fresh interpreter and time it."""
        index = len(self.reps)
        bundle = self.out_dir / f"bundle-{index}"
        result_path = self.out_dir / f"rep-{index}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--src", str(ROOT / "src"), "--config", str(self.config),
            "--runs", str(self.spec["runs"]), "--seed", str(self.seed),
            "--threads", str(threads), "--out-dir", str(bundle), "--result", str(result_path),
            "--oracle-runs", str(self.spec["oracle_runs"] if checks else 0),
        ] + (["--trace"] if trace else [])
        env = dict(os.environ, **BLAS_ENV)
        env.pop("PYTHONPATH", None)
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        ticks = cpu_ticks()
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            output, _ = proc.communicate()
        rep = {"threads": threads, "trace": trace, "returncode": proc.returncode,
               "cpu_steal_share": steal_share(ticks, cpu_ticks())}
        if proc.returncode == 0 and result_path.exists():
            rep.update(json.loads(result_path.read_text(encoding="utf-8")))
        else:
            rep["error"] = output.decode(errors="replace")[-4000:]
        # Exit code 1 is a FAIL verdict of the report, which is a check of
        # its own below; the runs themselves completed.
        rep["ok"] = rep.get("exit_code") in (0, 1)
        if rep["ok"]:
            rep["setup_s"] = rep["ens_start"] - spawned
            rep["wall_s"] = rep["main_end"] - spawned
            rep["runs_per_s"] = rep["runs"] / (rep["ens_end"] - rep["ens_start"])
            rep["peak_rss_mb"] = rep["peak_rss_kb"] / 1024.0
        elif "error" not in rep:
            rep["error"] = f"mc exited with {rep.get('exit_code')}"
        shutil.rmtree(bundle, ignore_errors=True)
        self.reps.append(rep)

        # Operations: every Monte Carlo run, every output check, and the
        # byte-identity of every later bundle with the first one.
        before = (self.attempted, self.failed)
        self.attempted += self.spec["runs"]
        self.failed += 0 if rep["ok"] else self.spec["runs"]
        if index > 0:
            same = rep["ok"] and rep.get("bundle_sha256") == self.reps[0].get("bundle_sha256")
            self.record_check(f"bundle_identical[rep {index}]", same,
                              f"{threads} worker(s) vs rep 0; identical bundles for one seed")
        if checks:
            if rep["ok"]:
                for name, ok, detail in rep["checks"]:
                    self.record_check(name, ok, detail)
            else:
                for _ in range(check_count(self.spec["runs"], self.spec["oracle_runs"])):
                    self.record_check("output check", False, "mc did not complete")
            verdict = rep.get("report_pass")
            if self.spec["gate_report"]:
                self.record_check("report_pass", verdict is True, "compare_with_theory verdict")
            else:
                # Recorded, not gated: see workloads.py.
                self.checks.append(["report (recorded, not gated)", None,
                                    f"pass={verdict} {json.dumps(rep.get('report_checks'))}"])
        rep["attempted"] = self.attempted - before[0]
        rep["failed"] = self.failed - before[1]
        return rep

    def record_check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append([name, bool(ok), detail])

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def end_to_end(run: Run, seconds: float) -> dict:
    # Only the repetitions count towards --seconds, not the output checks.
    measured = run.repetition(WORKERS, checks=True).get("wall_s", seconds)
    while measured < seconds and run.elapsed() < DEADLINE_S / 2:
        measured += run.repetition(WORKERS).get("wall_s", seconds)
    good = [r for r in run.reps if r["ok"]]
    if not good:
        return {}
    return {name: (statistics.median(r[name] for r in good), unit) for name, unit in END_TO_END}


def per_layer(run: Run) -> dict:
    two = run.repetition(WORKERS, checks=True)
    one = run.repetition(1)
    traced = run.repetition(1, trace=True)
    if not (two["ok"] and one["ok"] and traced["ok"]):
        return {}
    self_s = traced["self_s"]
    counts = traced["counts"]
    calls = sorted(traced["synth_call_s"])
    cells = counts.get("geometry.cells_scanned", 0)
    images = counts.get("geometry.images", 0)
    paths = counts.get("channel.paths", 0)
    evals = counts.get("channel.synth.kernel_evals", 0)
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in SELF_TIMED}
    metrics.update({
        "geometry.cells_scanned": (cells, "count"),
        "geometry.images": (images, "count"),
        "geometry.image_yield": (images / max(1, cells), "ratio"),
        "channel.paths": (paths, "count"),
        "channel.gate.kept_ratio": (paths / max(1, images), "ratio"),
        "channel.synth.kernel_evals": (evals, "count"),
        "channel.synth.ns_per_eval": (1e9 * sum(calls) / max(1, evals), "ns"),
        "channel.synth.call_ms_p50": (1e3 * statistics.median(calls), "ms"),
        "montecarlo.parallel_eff": (two["runs_per_s"] / (WORKERS * one["runs_per_s"]), "ratio"),
        "montecarlo.result_bytes": (traced["result_bytes"], "bytes"),
        "montecarlo.bundle.bytes": (traced["bundle_bytes"], "bytes"),
        "cli.import_s": (traced["import_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - one["wall_s"], "s"),
    })
    # The 90th percentile only where at least ten calls lie beyond it.
    if len(calls) >= 100:
        metrics["channel.synth.call_ms_p90"] = (1e3 * statistics.quantiles(calls, n=10)[-1], "ms")
    return metrics


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start, end) -> float:
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    return (end[0] - start[0]) / max(1, end[1] - start[1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "roomchan" / "cli.py").is_file():
        print(f"perfbench: no roomchan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                              capture_output=True, timeout=120)
    if compiled.returncode != 0:
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 2

    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    run = Run(args.workload, args.seed, out_dir)
    metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    load_end, ticks_end = os.getloadavg(), cpu_ticks()

    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = load_end
    env["cpu_steal_share"] = steal_share(ticks_start, ticks_end)
    correct = run.failed == 0 and bool(metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "runs_per_rep": run.spec["runs"], "environment": env, "checks": run.checks,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("checks", "self_s", "counts", "synth_call_s")}
            for r in run.reps
        ],
        "self_s": run.reps[-1].get("self_s"), "counts": run.reps[-1].get("counts"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
    }
    (out_root / f"{out_dir.name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"runs/rep={run.spec['runs']} reps={len(run.reps)}")
    for key in ("git_sha", "python", "numpy", "blas", "nproc", "loadavg_start", "loadavg_end",
                "cpu_steal_share"):
        print(f"  env {key}: {env[key]}")
    for i, rep in enumerate(run.reps):
        if rep["ok"]:
            print(f"  rep {i}: {rep['threads']} worker(s){' traced' if rep['trace'] else ''} "
                  f"wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
                  f"{rep['runs_per_s']:.2f} runs/s, steal {rep['cpu_steal_share']:.3f}, exit {rep['exit_code']}, "
                  f"{rep['failed']}/{rep['attempted']} ops failed")
        else:
            print(f"  rep {i}: FAILED {rep.get('error', '')[-400:]}")
    for name, ok, detail in run.checks:
        mark = {True: "PASS", False: "FAIL"}.get(ok, "INFO")
        print(f"  check {name}: {mark} - {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value:.6g} {unit}")
    summary = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k != "channel.synth.call_ms_p90"},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

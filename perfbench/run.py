"""perfbench: the dspread benchmark.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; it benchmarks the dspread under ``src/``.
For one workload it writes the seeded inputs (gen.py), runs the jobs in a
fresh workload process (workload.py), checks every job's output against the
independent oracle (oracle.py) and prints a summary followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced pass (spans.py). ``--workload all`` runs every workload
in turn and prints each summary.

The full record of a run (seed, input digests, environment, every job's
time and any check failures) goes to perfbench/work/<run>/result.json.
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
from pathlib import Path

import numpy as np

import gen
import oracle
import spans
from workload import REF_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every process the benchmark starts: BLAS capped at
    nproc threads, so the numbers measure the program, not the scheduler."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    env["PYTHONHASHSEED"] = "0"
    return env


def run_jobs(spec: dict, work: Path, env: dict) -> dict:
    spec_path, result_path = work / "spec.json", work / "child.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), str(spec_path), str(result_path)],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_records(records: list, jobs: list, warmup: dict, out_dir: Path) -> list[list[str]]:
    """The oracle's problems for every job record, in record order."""
    verdicts, seen = [], {}
    for r in records:
        key = (r["job"], r["out"], r["rc"])
        if key not in seen:
            job = warmup if r["job"] < 0 else jobs[r["job"]]
            text = (out_dir / r["out"]).read_text(encoding="utf-8")
            seen[key] = oracle.check_output(job, r["rc"], text)
        verdicts.append(([r["error"]] if r["error"] else []) + seen[key])
    return verdicts


def host_scaled(records: list[dict]) -> list[tuple[dict, float]]:
    """Each sample after the first, with its wall seconds at the reference
    host speed.

    The host is shared, and its speed drifts by tens of percent within
    minutes. A sample's wall time is scaled by REF_NOMINAL_S over the mean
    time of reference_work() just before and just after it. So the drift
    cancels, and a change in the program's own cost shows in full.
    """
    return [(r, r["wall_s"] * REF_NOMINAL_S / ((prev["ref_s"] + r["ref_s"]) / 2.0))
            for prev, r in zip(records, records[1:])]


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(records: list, jobs: list, setup: list, peak_rss_mb: float) -> tuple[dict, dict]:
    timed = [(r, w) for r, w in host_scaled(records) if r["phase"] == "timed"]
    walls = [w for _, w in timed]
    rates = [jobs[r["job"]]["pairs"] / w for r, w in timed]
    raw = statistics.median(r["wall_s"] for r, _ in timed)
    q1, q3 = quartiles(walls)
    s1, s3 = quartiles(setup)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (statistics.median(walls), "s"),
        "pairs_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of dspread.cli "
                   f"(quartiles {s1:.4f}, {s3:.4f})",
        "job_s": f"median of {len(walls)} jobs, host-scaled (quartiles {q1:.4f}, {q3:.4f}; "
                 f"raw wall {raw:.4f})",
        "pairs_per_s": f"median over {len(rates)} jobs of (graph, alpha) pairs per "
                       f"host-scaled second",
        "peak_rss_mb": "of the workload process",
    }
    return metrics, notes


def per_layer(trace: dict, records: list, jobs: list) -> dict:
    scaled = host_scaled(records)
    untraced = sum(w for r, w in scaled if r["phase"] == "untraced")
    traced = sum(w for r, w in scaled if r["phase"] == "traced")
    calls, self_s = trace["calls"], trace["self_s"]
    graphs = sum(len(j["graphs"]) for j in jobs)
    pairs = sum(j["pairs"] for j in jobs)
    values = calls["bounds.EvalContext.values"]
    metrics = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics.update({
        "graphs.distance_profile.per_graph": (calls["graphs.distance_profile"] / graphs, "ratio"),
        "eigen.sym_eigen.per_pair": (calls["eigen.sym_eigen"] / pairs, "ratio"),
        "eigen.sym_eigen.sum_n3": (trace["sum_n3"], "n3-computed"),
        # base: bounds.EvalContext.values.calls; 0 when there were no calls
        "bounds.spectrum_cache_hit_ratio": (
            1.0 - trace["solves_under_values"] / values if values else 0.0, "ratio"),
        "bounds.reports_built": (trace["reports_built"], "count"),
        "jsonfmt.output_bytes": (trace["output_bytes"], "bytes"),
        "trace.wall_s": (sum(r["wall_s"] for r in records if r["phase"] == "traced"), "s"),
        # host-scaled, like job_s, so drift between the passes cancels
        "trace.overhead_ratio": (traced / untraced - 1.0, "ratio"),
    })
    return metrics


def environment(child: dict, load: tuple) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "loadavg_at_start": list(load),
        "blas_thread_cap": nproc(),
        "blas_threads": child["blas_threads"],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; return the full record of the run."""
    load = os.getloadavg()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = gen.make_jobs(name, seed, work / "inputs")
    jobs, warmup = inputs["jobs"], inputs["warmup"]
    out_dir = work / "out"
    child = run_jobs({
        "src": str(SRC), "out_dir": str(out_dir), "mode": "traced" if trace else "timed",
        "seconds": seconds, "jobs": jobs, "warmup": warmup,
    }, work, child_env())
    records, setup = child["records"], child["setup_s"]
    verdicts = check_records(records, jobs, warmup, out_dir)
    failed = sum(1 for v in verdicts if v)
    if trace:
        metrics, notes = per_layer(child["trace"], records, jobs), {}
    else:
        metrics, notes = end_to_end(records, jobs, setup, child["peak_rss_mb"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": inputs["inputs"], "environment": environment(child, load),
        "attempted": len(records), "failed": failed, "failed_ratio": failed / len(records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "setup_s_samples": setup,
        "jobs": [dict(r, problems=v) for r, v in zip(records, verdicts)],
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if not failed:
        shutil.rmtree(out_dir)
    return record


def summary(record: dict) -> list[str]:
    env = record["environment"]
    digest = hashlib.sha256("".join(sorted(record["inputs"].values())).encode()).hexdigest()
    lines = [
        f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"{record['attempted']} jobs (1 warm-up), {record['failed']} failed",
        f"  inputs: {len(record['inputs'])} files, combined sha256 {digest[:16]}",
        f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"nproc {env['nproc']}, BLAS threads {env['blas_threads']} (cap {env['blas_thread_cap']}), "
        f"load {env['loadavg_at_start'][0]:.2f}",
    ]
    for name, m in record["metrics"].items():
        note = record["notes"].get(name, "")
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<12} {note}".rstrip())
    lines.append(f"  {'failed_ratio':<44} {record['failed_ratio']:>14.6g} "
                 f"{'ratio':<12} {record['failed']} of {record['attempted']} jobs")
    for job in record["jobs"]:
        for problem in job["problems"][:3]:
            lines.append(f"  FAILED job {job['job']} ({job['phase']}): {problem}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dspread" / "__init__.py").is_file():
        print(f"error: no dspread sources under {SRC}", file=sys.stderr)
        return 2
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary(record)), flush=True)
        results[name] = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

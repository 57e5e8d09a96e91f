"""The workload process: one fresh interpreter that runs one workload's jobs.

    python3 perfbench/workload.py SPEC.json RESULT.json

Each job is one call of ``dspread.cli.main(argv)`` with stdout and stderr
captured, sent only after the previous one returned (a closed loop with one
client). The process times jobs and saves their stdout; it checks nothing,
so the checks' memory and time stay out of its measurements.

Modes, from the spec:
  timed   a warm-up job, then the chunk jobs in turn until the next job
          would end past ``seconds`` (at least MIN_JOBS of them); after
          each job, a fresh interpreter times ``import dspread.cli``
          (setup_s, at least SETUP_RUNS times), so the import samples are
          spread over the run like the jobs
  traced  a warm-up job, one untraced pass over the chunks, then the same
          pass again with every layer wrapped by spans.Tracer
After every job, warm-up included, reference_work() is timed as well.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

MIN_JOBS = 3
SETUP_RUNS = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dspread.cli; print(time.perf_counter() - t)"
)
REF_ORDER = 24
REF_SWEEPS = 40
# host-scaled seconds are wall seconds on a host where reference_work()
# takes this long (about its time on a quiet 2-core x86 VM, Python 3.11)
REF_NOMINAL_S = 0.25


def reference_work() -> None:
    """Fixed work that shows how fast the shared host runs at the moment.

    REF_SWEEPS cyclic sweeps of Jacobi rotations over the distance matrix of
    the REF_ORDER-cycle, restarted from that matrix every sweep, so the work
    never changes. It is written here and never calls dspread, so a change to
    dspread cannot change it. It mixes the same small-array numpy and
    interpreter work as dspread's eigensolver, which holds most of every
    workload's time. So a slower host slows it by about the same share as it
    slows a job; a simpler numpy loop slowed by much more.
    """
    n = REF_ORDER
    gap = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    base = np.minimum(gap, n - gap).astype(float)
    a = base.copy()
    for _ in range(REF_SWEEPS):
        a[:] = base
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                tau = (a[q, q] - a[p, p]) / (2.0 * apq) if apq else 0.0
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q]
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :]
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def time_import(src: Path) -> float:
    """Seconds a fresh interpreter takes to import dspread.cli.

    Not host-scaled: the import is loader and file work, which
    reference_work() does not track.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import dspread.cli failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Threads OpenBLAS will use in this process, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


class Runner:
    def __init__(self, cli, out_dir: Path):
        self.cli = cli
        self.out_dir = out_dir
        self.records: list[dict] = []
        self._saved: dict[str, str] = {}  # stdout digest -> file name

    def run(self, job_index: int, argv: list, phase: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code
        except Exception as exc:  # a crash fails this job, not the run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest not in self._saved:
            self._saved[digest] = f"{len(self._saved):04d}.out"
            (self.out_dir / self._saved[digest]).write_text(text, encoding="utf-8")
        self.records.append({
            "job": job_index, "phase": phase, "wall_s": wall, "rc": rc,
            "out": self._saved[digest], "stderr": err.getvalue()[-2000:], "error": error,
            "ref_s": time_reference(),
        })
        return wall


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import dspread.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: dspread imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, out_dir)
    jobs = spec["jobs"]
    runner.run(-1, spec["warmup"]["argv"], "warmup")
    trace, setup = None, []
    if spec["mode"] == "timed":
        walls: list[float] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_JOBS and elapsed + statistics.median(walls) > spec["seconds"]:
                break
            i = len(walls) % len(jobs)
            walls.append(runner.run(i, jobs[i]["argv"], "timed"))
            setup.append(time_import(src))
        while len(setup) < SETUP_RUNS:
            setup.append(time_import(src))
    else:
        from spans import Tracer

        for i, job in enumerate(jobs):
            runner.run(i, job["argv"], "untraced")
        tracer = Tracer()
        tracer.install()
        for i, job in enumerate(jobs):
            tracer.job = i
            runner.run(i, job["argv"], "traced")
        trace = tracer.summary()
        tracer.write(out_dir.parent / "spans.tsv")
    result = {
        "records": runner.records,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "trace": trace,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

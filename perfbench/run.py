"""agrip benchmark: one workload of `agrip pipeline` jobs, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-uniform --seed 0 --seconds 20 --trace 0

The run imports agrip from ./src, times its set-up, then runs the workload's
job list through `agrip.cli.main` one job after another with
AGRIP_THREADS=2 and single-threaded BLAS, repeating the list while another
pass fits in --seconds.
Every job's artifacts are checked after each pass, outside the timed region.
With --trace 1 the run instead makes one pass under `spans.Tracer` and
reports the per-layer metrics; the untraced wall time it subtracts for the
tracing overhead comes from a one-pass untraced run in a child process, so
both passes start from a fresh process.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREADS = "2"
# numpy's OpenBLAS threads spin on the small least-squares solves of
# recovery; on a shared 2-core host that made wall time swing by a quarter
# between runs
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"
SETUP_SAMPLES = 9
# a fresh interpreter timing the import every CLI invocation pays
_IMPORT_PROBE = ("import sys, time\n"
                 "t0 = time.perf_counter()\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import agrip.cli\n"
                 "print(time.perf_counter() - t0)\n")

# (name, unit) of every traced metric, in BENCHMARK.json order
PER_LAYER = [
    ("cli.calls", "count"), ("cli.busy_s", "s"), ("cli.self_s", "s"),
    ("cli.rss_rise_mb", "MB"),
    ("matrix.coherence.calls", "count"), ("matrix.coherence.busy_s", "s"),
    ("matrix.coherence.rss_rise_mb", "MB"),
    ("matrix.coherence.pairs_per_s", "1/s"),
    ("matrix.average_coherence.calls", "count"),
    ("matrix.average_coherence.busy_s", "s"),
    ("matrix.average_coherence.rss_rise_mb", "MB"),
    ("matrix.average_coherence.pairs_per_s", "1/s"),
    ("matrix.gram_passes_per_report", "ratio"),
    ("exact.compare.calls", "count"), ("exact.compare.busy_s", "s"),
    ("exact.compare.rss_rise_mb", "MB"),
    ("exact.threshold.calls", "count"), ("exact.threshold.busy_s", "s"),
    ("exact.threshold.rss_rise_mb", "MB"),
    ("constructions.calls", "count"), ("constructions.busy_s", "s"),
    ("constructions.rss_rise_mb", "MB"),
    ("constructions.columns_per_s", "1/s"),
    ("fields.np_ops.calls", "count"), ("fields.np_ops.busy_s", "s"),
    ("fields.np_ops.rss_rise_mb", "MB"),
    ("fields.scalar_ops.calls", "count"),
    ("signs.calls", "count"), ("signs.busy_s", "s"),
    ("signs.rss_rise_mb", "MB"), ("signs.columns_per_s", "1/s"),
    ("matrix.read.calls", "count"), ("matrix.read.busy_s", "s"),
    ("matrix.read.rss_rise_mb", "MB"), ("matrix.read.mb_per_s", "MB/s"),
    ("matrix.write.calls", "count"), ("matrix.write.busy_s", "s"),
    ("matrix.write.rss_rise_mb", "MB"), ("matrix.write.mb_per_s", "MB/s"),
    ("recovery.calls", "count"), ("recovery.trials", "count"),
    ("recovery.busy_s", "s"), ("recovery.rss_rise_mb", "MB"),
    ("recovery.trials_per_s", "1/s"),
    ("trace.overhead_s", "s"),
]


def pin_threads():
    """Fix agrip's and BLAS's thread counts; call before numpy is imported."""
    os.environ["AGRIP_THREADS"] = THREADS
    os.environ[BLAS_THREADS_ENV] = "1"


def _import_agrip():
    """Import agrip from this checkout's src, never from an installed copy."""
    if not (SRC / "agrip" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no agrip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import agrip.cli
    if Path(agrip.__file__).resolve().parent != (SRC / "agrip").resolve():
        raise SystemExit(f"perfbench: imported agrip from {agrip.__file__}")


def setup_samples(count: int = SETUP_SAMPLES) -> list[float]:
    """Import time of agrip and its numpy/scipy/mpmath stack, fresh each time."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _clear_caches():
    """Drop agrip's memoized fields so every pass starts like a fresh CLI call."""
    for name, module in list(sys.modules.items()):
        if name == "agrip" or name.startswith("agrip."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_job(job, outdir) -> object:
    """Exit code of one pipeline job, or the exception it raised."""
    import agrip.cli
    import checks
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return agrip.cli.main(checks.pipeline_args(job, outdir))
    except Exception as exc:  # a crashing job is counted, not fatal
        return f"{type(exc).__name__}: {exc}"


def run_pass(jobs, workdir: Path, tracer=None):
    """Run the job list once: (wall_s, [(job, outdir, rc, wall_s, cpu_s)])."""
    _clear_caches()
    outdirs = [workdir / f"{i:02d}-{job.name}" for i, job in enumerate(jobs)]
    results = []
    t0 = time.perf_counter()
    for job, outdir in zip(jobs, outdirs):
        if tracer is not None:
            tracer.job = job.name
        t, c = time.perf_counter(), time.process_time()
        rc = _run_job(job, outdir)
        results.append((job, outdir, rc, time.perf_counter() - t,
                        time.process_time() - c))
    return time.perf_counter() - t0, results


def check_pass(results, workload, seed, golden) -> list[str]:
    """One line per failed job; the golden digests apply on recorded seeds."""
    import checks
    shapes = golden["shapes"][workload]
    digests = golden["digests"][workload].get(str(seed))
    failures = []
    for job, outdir, rc, *_ in results:
        if job.name not in shapes:
            problems = ["no recorded shape"]
        else:
            problems = checks.check_job(
                job, outdir, rc, shapes[job.name],
                None if digests is None else digests.get(job.name, {}))
        if problems:
            failures.append(f"{job.name}: {'; '.join(problems)}")
    return failures


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    totals = tracer.layer_totals()
    values = {}
    for layer in ("cli", "matrix.coherence", "matrix.average_coherence",
                  "exact.compare", "exact.threshold", "constructions",
                  "fields.np_ops", "signs", "matrix.read", "matrix.write",
                  "recovery"):
        for key in ("calls", "busy_s", "rss_rise_mb"):
            values[f"{layer}.{key}"] = totals[layer][key]

    def rate(layer, scale=1.0):
        busy = totals[layer]["busy_s"]
        return tracer.work[layer] / scale / busy if busy > 0 else 0.0

    values["cli.self_s"] = tracer.cli_self_s()
    values["matrix.coherence.pairs_per_s"] = rate("matrix.coherence")
    values["matrix.average_coherence.pairs_per_s"] = rate(
        "matrix.average_coherence")
    reports = totals["matrix.report"]["calls"]
    gram = (totals["matrix.coherence"]["calls"]
            + totals["matrix.average_coherence"]["calls"])
    values["matrix.gram_passes_per_report"] = gram / reports if reports else 0.0
    values["constructions.columns_per_s"] = rate("constructions")
    values["signs.columns_per_s"] = rate("signs")
    values["matrix.read.mb_per_s"] = rate("matrix.read", 1e6)
    values["matrix.write.mb_per_s"] = rate("matrix.write", 1e6)
    values["fields.scalar_ops.calls"] = tracer.counts["fields.scalar_ops"]
    trials = tracer.counts["recovery.trial"]
    values["recovery.trials"] = trials
    busy = totals["recovery"]["busy_s"]
    values["recovery.trials_per_s"] = trials / busy if busy > 0 else 0.0
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def measure(jobs, workdir, args, golden, env):
    """Untraced passes while another one fits in --seconds (at least one).

    wall_s and cpu_s sum each job's median over the passes, which keeps a
    burst of load from another process out of the figure.
    """
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        shutil.rmtree(workdir, ignore_errors=True)
        wall, results = run_pass(jobs, workdir)
        passes.append(results)
        failures += check_pass(results, args.workload, args.seed, golden)
        if time.perf_counter() + wall > start + args.seconds:
            break
    attempted = len(passes) * len(jobs)
    job_wall = {job.name: statistics.median(p[i][3] for p in passes)
                for i, job in enumerate(jobs)}
    job_cpu = {job.name: statistics.median(p[i][4] for p in passes)
               for i, job in enumerate(jobs)}
    env.update(passes=len(passes), job_median_wall_s=job_wall,
               job_median_cpu_s=job_cpu)
    metrics = {
        "wall_s": {"value": sum(job_wall.values()), "unit": "s"},
        "cpu_s": {"value": sum(job_cpu.values()), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "pass_frac": {"value": (attempted - len(failures)) / attempted,
                      "unit": "ratio"},
    }
    return metrics, attempted, failures


def untraced_baseline(args) -> dict:
    """Result of a one-pass untraced run in a fresh process, for the overhead."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: untraced baseline failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload, seed) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "AGRIP_THREADS": os.environ.get("AGRIP_THREADS"),
        BLAS_THREADS_ENV: os.environ.get(BLAS_THREADS_ENV),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "git_commit": _git_commit(), "workload": workload, "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    _import_agrip()
    import checks
    from jobs import workload_jobs
    from spans import Tracer

    jobs = workload_jobs(args.workload, args.seed)
    golden = checks.load_golden()
    env = environment(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            baseline = untraced_baseline(args)
            with Tracer() as tracer:
                traced_wall, results = run_pass(jobs, workdir, tracer)
            attempted = baseline["attempted"] + len(results)
            failures = check_pass(results, args.workload, args.seed, golden)
            failed = baseline["failed"] + len(failures)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            untraced_wall = baseline["metrics"]["wall_s"]["value"]
            env.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                       untraced_functions=tracer.missing)
            metrics = layer_metrics(tracer, traced_wall, untraced_wall)
        else:
            setup = setup_samples()
            metrics, attempted, failures = measure(jobs, workdir, args, golden,
                                                   env)
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            failed = len(failures)
            env["setup_samples_s"] = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

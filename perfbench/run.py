"""Benchmark for tetralap: one workload per fresh process.

    python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports tetralap from its ``src``
directory.  A run generates the workload's fixed job list from the
seed, times a few fresh processes that only set up, runs one untimed
warm-up pass, then repeats the job list until ``--seconds`` have passed.
Every job checks its own outputs.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.  The lines before it repeat the
metrics for reading, with the extra figures that have no place in the
JSON line.  The full record, with the environment, the computed work
and the spans, goes to ``perfbench/out/``.

With ``--trace 1`` the run alternates untraced and traced passes, so
``trace.overhead_s`` is measured in the same process; per-layer figures
are means per pass over the traced passes.
"""

from __future__ import annotations

import argparse
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
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

#: Single-threaded BLAS keeps runs steady on a small shared machine and
#: stays within nproc on any machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7  # timed fresh processes per run, after one untimed one


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    job_s: list[float]


class Run:
    """One workload's passes, failures and counters."""

    def __init__(self, workload, jobs, ctx, rec, probe_cmd):
        self.workload, self.jobs, self.ctx, self.rec = workload, jobs, ctx, rec
        self.probe_cmd = probe_cmd
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.untraced: list[Pass] = []
        self.traced: list[Pass] = []
        self.setup_s: list[float] = []

    def one_pass(self, traced: bool) -> Pass:
        rec = self.rec if traced else None
        uninstall = spans.install(rec) if traced else None
        self.ctx.rec, self.ctx.span = rec, spans.span_factory(rec)
        job_s = []
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            for job in self.jobs:
                if traced:
                    rec.job += 1
                j0 = time.perf_counter()
                with self.ctx.span("job"):
                    try:
                        problems = self.workload.run_job(job, self.ctx)
                    except Exception:  # a job that raises is a failed job
                        problems = [traceback.format_exc()]
                job_s.append(time.perf_counter() - j0)
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.extend(problems[: 5 - len(self.problems)])
            done = Pass(time.perf_counter() - t0, time.process_time() - c0, job_s)
        finally:
            if uninstall:
                uninstall()
        return done

    def probe(self) -> float:
        """Seconds from spawning a fresh process to its jobs being ready."""
        t0 = time.monotonic()
        done = subprocess.run(self.probe_cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        return float(done.stdout.split()[-1]) - t0

    def measure(self, seconds: float, trace: bool, probes: int) -> None:
        if probes:
            self.probe()  # untimed: it may still be writing bytecode caches
        self.one_pass(False)  # warm-up: checked, not timed
        deadline = time.perf_counter() + seconds
        flip = False
        while not self.untraced or time.perf_counter() < deadline:
            # traced runs alternate which side of a pair goes first
            order = ((True, False) if flip else (False, True)) if trace else (False,)
            flip = not flip
            for traced in order:
                (self.traced if traced else self.untraced).append(self.one_pass(traced))
            # set-up probes are spread over the run, between passes, so
            # they sample the machine at the same moments as the passes
            if len(self.setup_s) < probes:
                self.setup_s.append(self.probe())
        while len(self.setup_s) < probes:
            self.setup_s.append(self.probe())


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    jobs = [t for p in run.untraced for t in p.job_s]
    # each job of the fixed list is timed by its median over the passes,
    # so the p50 does not sit on the gap between two different commands
    per_job = [statistics.median(times) for times in zip(*(p.job_s for p in run.untraced))]
    metrics = {
        "run_s": statistics.median(p.wall_s for p in run.untraced),
        "job_s.p50": statistics.median(per_job),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"run_s is the median of {len(run.untraced)} passes of {len(run.jobs)} jobs",
        f"job_s.p50 is the median over the {len(per_job)} jobs of the list of each job's "
        f"median over {len(run.untraced)} passes",
        f"setup_s is the median of {len(run.setup_s)} fresh processes",
        f"job_fail_ratio = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} jobs)",
    ]
    if len(jobs) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(jobs, n=10)[-1]
        notes.append(f"job_s.p90 = {p90!r} s (n = {len(jobs)} jobs)")
    return metrics, notes


def per_layer(run: Run, span_names) -> tuple[dict, list[str]]:
    rec, n = run.rec, len(run.traced)
    selves = rec.self_times()
    totals, peaks = rec.totals, rec.peaks

    def rate(count, span):
        busy = selves.get(span, 0.0)
        return totals[count] / busy if busy > 0 else 0.0

    def share(part, whole):
        return totals[part] / totals[whole] if totals[whole] else 0.0

    traced_s = statistics.fmean(p.wall_s for p in run.traced)
    untraced_s = statistics.fmean(p.wall_s for p in run.untraced)
    metrics = {f"{name}.s": selves.get(name, 0.0) / n for name in span_names}
    metrics.update({
        "job.self_s": selves.get("job", 0.0) / n,
        "fractal_graph.build_level.vertices_per_s":
            rate("fractal_graph.vertices_built", "fractal_graph.build_level"),
        "decimation.enumerate_spectrum.records_per_s":
            rate("decimation.records_enumerated", "decimation.enumerate_spectrum"),
        "decimation.limit.generations_mean":
            share("decimation.limit.generations_sum", "decimation.limit.records"),
        "decimation.limit.converged_ratio":
            share("decimation.limit.converged", "decimation.limit.records"),
        "process.cpu_s": statistics.fmean(p.cpu_s for p in run.untraced),
        "process.cpu_util": sum(p.cpu_s for p in run.untraced) / sum(p.wall_s for p in run.untraced),
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    for name in ("fractal_graph.vertices_built", "decimation.records_enumerated",
                 "oracle.jacobi.sweeps", "cli.bytes_out"):
        metrics[name] = totals[name] / n
    for name in ("oracle.dim", "oracle.max_abs_diff", "oracle.jacobi.off_diag_norm",
                 "laplacian.gauss_green.max_residual"):
        metrics[name] = peaks.get(name, 0.0)

    accounted = sum(selves.values()) / n
    notes = [
        f"per-layer figures are means over {n} traced passes of {len(run.jobs)} jobs",
        f"decimation.limit.converged_ratio base = {totals['decimation.limit.records'] / n!r} limits per pass",
        f"trace accounting: layer self times + job.self_s = {accounted!r} s "
        f"of trace.run_s {traced_s!r} s (pass loop {traced_s - accounted!r} s)",
    ]
    return metrics, notes


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for needed in (SRC / "tetralap" / "__init__.py", SPEC):
        if not needed.is_file():
            print(f"run.py: {needed} is missing; run from the root of a full checkout",
                  file=sys.stderr)
            return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.tl.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported tetralap from {workloads.tl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    probe_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe"]
    outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    os.environ["TETRALAP_OUTDIR"] = str(outdir)  # where cli-session writes its documents
    ctx = workloads.Context(span=spans.NullSpan, outdir=outdir, hashes={})
    run = Run(workload, jobs, ctx, spans.Recorder() if args.trace else None, probe_cmd)
    try:
        # set-up time is an end-to-end metric: traced runs skip the probes
        run.measure(args.seconds, bool(args.trace), 0 if args.trace else SETUP_PROBES)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if args.trace:
        names = [n for _, _, n, _ in spans.LAYER_FUNCTIONS]
        names += [f"cli.{sub}" for sub in workloads.CLI_SUBCOMMANDS]
        metrics, notes = per_layer(run, dict.fromkeys(names))
    else:
        metrics, notes = end_to_end(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "computed_work_per_job": workload.computed_work,
        "passes": {"untraced": [asdict(p) for p in run.untraced],
                   "traced": [asdict(p) for p in run.traced]},
        "setup_s": run.setup_s,
        "notes": notes,
        "problems": run.problems,
        "result": result,
        "spans": run.rec.dump() if args.trace else [],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {out_file.relative_to(ROOT)}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    for line in notes:
        print(f"# {line}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

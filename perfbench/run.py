"""rtfactor benchmark: closed-loop job streams over four workloads.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 20 --trace 0

One client runs each job after the previous one finishes (no threads).
Each job parses its input, computes with the public rtfactor functions
the way ``rtfactor.cli`` does, renders the answer and checks it.  The
last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer self times and counts of
a traced run, the tracing overhead, and the layer probes.

``--workload all`` runs every workload in turn and prints each metric
by name and unit.  ``--record-digests`` runs the default seed's whole
job pool and stores one digest per answer in digests.json; runs with
the default seed then fail any job whose answer differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from fractions import Fraction
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("knots", "skein", "cohomology", "classical")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Median time of reference() on the machine that defined the benchmark.
# Job times are scaled by REFERENCE_S / (median reference() time in the run).
REFERENCE_S = 0.0017
# A run goes on past --seconds until this many jobs are done, so that at
# least ten latencies lie beyond p90 even on a slow machine.
MIN_JOBS = 100
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"


def _load_package():
    """Import rtfactor from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "rtfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no rtfactor sources under {src}")
    sys.path.insert(0, str(src))
    import rtfactor
    if Path(rtfactor.__file__).resolve().parent != (src / "rtfactor").resolve():
        raise SystemExit("error: rtfactor was imported from outside src/")


def _digest(answer: str) -> str:
    return hashlib.sha256(answer.encode()).hexdigest()[:16]


def _load_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def reference() -> None:
    """Fixed pure-Python work (exact fractions and a dict, like rtfactor's
    inner loops) timed after every job to track the machine's speed."""
    acc = {}
    for i in range(1, 200):
        key = i % 37
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)


class Stream:
    """Runs jobs from a pool in order and keeps latencies and failures."""

    def __init__(self, jobs, digests):
        self.jobs = jobs
        self.digests = digests
        self.memo = {}
        self.reported = 0

    def run_one(self, index, tracer=None):
        job = self.jobs[index % len(self.jobs)]
        try:
            result = job.run(job.payload)
            if tracer is None:
                ok, answer = job.check(job.payload, result, self.memo)
            else:
                ok, answer = tracer.span("bench.check", job.check,
                                         job.payload, result, self.memo)
        except Exception:
            self._report(job, traceback.format_exc())
            return False, None
        slot = index % len(self.jobs)
        if self.digests is not None and slot < len(self.digests):
            if _digest(answer) != self.digests[slot]:
                self._report(job, f"answer differs from the recorded digest: {answer}")
                return False, answer
        if not ok:
            self._report(job, f"answer failed its check: {answer}")
        return ok, answer

    def _report(self, job, text):
        if self.reported < 5:
            print(f"job {job.cls} failed: {text}", file=sys.stderr)
        self.reported += 1

    def run(self, seconds):
        """Closed loop: the next job starts when the last one ends, until
        `seconds` have passed and MIN_JOBS are done.  Returns the job
        latencies, the failures and the reference() times between jobs."""
        latencies, references, failed = [], [], 0
        stop = perf_counter() + seconds
        while len(latencies) < MIN_JOBS or perf_counter() < stop:
            begin = perf_counter()
            ok, _ = self.run_one(len(latencies))
            end = perf_counter()
            reference()
            references.append(perf_counter() - end)
            latencies.append(end - begin)
            failed += not ok
        return latencies, failed, references

    def run_paired(self, seconds, tracer):
        """Each job twice, untraced and traced, in alternating order, so
        both sides see the same machine; returns jobs, failures and the
        summed untraced and traced job times."""
        failed, index, plain_s, traced_s = 0, 0, 0.0, 0.0
        start = perf_counter()
        while index == 0 or perf_counter() < start + seconds:
            job = self.jobs[index % len(self.jobs)]
            for use_tracer in ((False, True) if index % 2 else (True, False)):
                if use_tracer:
                    tracer.install()
                    tracer.begin_job(index, job.meta, job.label)
                begin = perf_counter()
                ok, _ = self.run_one(index, tracer if use_tracer else None)
                took = perf_counter() - begin
                if use_tracer:
                    tracer.uninstall()
                    traced_s += took
                else:
                    plain_s += took
                failed += not ok
            index += 1
        return index, failed, plain_s, traced_s


def _measure_setup(workload, seed):
    """Median time from a fresh interpreter to the first job being ready."""
    times = []
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up child failed")
        times.append(ready - start)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(module, workload, seed, seconds):
    setup_s = _measure_setup(workload, seed)
    jobs = module.build(seed)
    stream = Stream(jobs, _load_digests(workload, seed))
    latencies, failed, references = stream.run(seconds)
    # Shared machines drift in speed by tens of percent within minutes; job
    # times are reported at the reference speed to take that drift out.
    scale = REFERENCE_S / statistics.median(references)
    deciles = statistics.quantiles(latencies, n=10)
    count, busy = len(latencies), sum(latencies)
    metrics = {
        "jobs_per_s": _metric(count / (busy * scale), "jobs/s"),
        "job_p50_ms": _metric(1e3 * statistics.median(latencies) * scale, "ms"),
        "job_p90_ms": _metric(1e3 * deciles[-1] * scale, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload} seed {seed}: {count} jobs in {busy:.2f} s of job time "
          f"({count / busy:.4g} jobs/s, p50 {1e3 * statistics.median(latencies):.4g} ms, "
          f"p90 {1e3 * deciles[-1]:.4g} ms unscaled), speed scale {scale:.4f}, "
          f"{count - count * 9 // 10} beyond p90, fail_frac {failed / count:.4f}")
    return metrics, count, failed


def traced(module, workload, seed, seconds):
    from probes import run_probes
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    tracer.begin_job("setup", {}, None)
    start = perf_counter()
    jobs = module.build(seed)
    setup_s = perf_counter() - start
    tracer.uninstall()

    stream = Stream(jobs, _load_digests(workload, seed))
    count, failed, plain_s, traced_s = stream.run_paired(seconds, tracer)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl")

    labels = {i: jobs[i % len(jobs)].label for i in range(count)}
    metrics = layer_metrics(tracer, labels, traced_s + setup_s)
    metrics["trace.jobs"] = (count, "count")
    metrics["trace.setup_s"] = (setup_s, "s")
    metrics["trace.untraced_jobs_per_s"] = (count / plain_s, "jobs/s")
    metrics["trace.traced_jobs_per_s"] = (count / traced_s, "jobs/s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    metrics.update(run_probes())
    return ({k: _metric(v, u) for k, (v, u) in sorted(metrics.items())},
            2 * count, failed)


def record_digests(module, workload):
    jobs = module.build(DEFAULT_SEED)
    stream = Stream(jobs, None)
    answers = []
    for i in range(len(jobs)):
        ok, answer = stream.run_one(i)
        if not ok:
            raise SystemExit(f"error: job {i} of {workload} failed")
        answers.append(_digest(answer))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = answers
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(answers)} digests for {workload}")


def run_all(args):
    """Every workload in a child process, each metric printed by name."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{workload}: failed with exit code {out.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} fail_frac="
              f"{result['failed'] / result['attempted']:.4f}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    _load_package()
    if args.workload == "all":
        return run_all(args)
    module = importlib.import_module(args.workload)
    if args.setup_only:
        module.build(args.seed)
        print("ready", flush=True)
        return 0
    if args.record_digests:
        record_digests(module, args.workload)
        return 0
    run = traced if args.trace else untraced
    metrics, attempted, failed = run(module, args.workload, args.seed,
                                     args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

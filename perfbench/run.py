"""Run one freegp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The job list of the workload is generated from --seed and run again and
again, single-threaded and in a closed loop, until --seconds have passed.
Each job's result is checked (paper invariants and, for the seeds kept in
expected.json, its digest) the first time it runs, and must come out the
same on every later pass.  Job times are reported in units of a reference
computation timed between jobs (see `reference`).  With --trace 1 every
other pass runs with the layer boundaries wrapped (tracing.py) and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Run records and traces go to .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ["classify", "reduce", "witness", "queries"]
DEFAULT_SEED = 1
HELDOUT_SEED = 2  # kept out of tuning; its digests are stored too
SETUP_PROBES = 11
SETUP_REFERENCES = 20  # reference samples a setup probe times after it is ready
REFERENCE_NOMINAL_S = 0.0015  # reference() at full speed; scales setup_s back to seconds
REFERENCE_EVERY = 0.05  # seconds of job time between two reference samples
REFERENCE_WINDOW = 0.5  # least seconds around a job whose reference samples rate it


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_jobs(workload: str, seed: int, smoke: bool):
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads.WORKLOADS[workload](seed, smoke)


def expected_digests(seed: int) -> dict[str, str]:
    doc = json.loads(EXPECTED.read_text())
    return {**doc["fixed"], **doc["seeds"].get(str(seed), {})}


def probe_setup(argv_tail: list[str]) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first job being
    ready, and the median reference time the interpreter measured just
    after that.

    The reference is timed in the probe's own process because each vCPU of
    the host changes speed on its own (NOTES.md): a reference timed in this
    process may run on the other vCPU.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", *argv_tail],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        rest = child.stdout.read()
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe failed")
    return ready - start, float(rest)


def reference_seconds(samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        reference()
        out.append(time.perf_counter() - start)
    return out


def reference() -> None:
    """Fixed pure-Python work with freegp's mix of operations (Fraction
    arithmetic, tuple keys, dict updates) that calls nothing in freegp.

    Timed between jobs, it tells how fast the host runs at that moment.
    A shared virtual machine can switch between speeds about 2x apart for
    seconds at a time (NOTES.md gives a measurement); job times divided by
    the reference time cancel most of that out.
    """
    acc: dict = {}
    zero = Fraction(0)
    for i in range(400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, zero) + Fraction(i % 7 + 1, i % 11 + 1)


class Run:
    """Passes over one job list, with every result checked."""

    def __init__(self, jobs, expected: dict[str, str], tracer=None):
        self.jobs = jobs
        self.expected = expected
        self.tracer = tracer
        self.verdicts: dict[str, tuple[str | None, list[str]]] = {}
        self.passes: list[dict] = []
        # Untraced passes only: (start, seconds) of each execution, and the
        # (start, seconds) samples of the reference computation.
        self.timing: dict[str, list[tuple[float, float]]] = {job.id: [] for job in jobs}
        self.reference: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, list[str]] = {}

    def _verdict(self, job, result, error):
        """(digest, problems) of one execution; the first one is kept."""
        d = None
        if error is None:
            try:
                d = digest(job.render(result))
            except Exception as exc:  # a malformed result is a failed job
                error = f"render: {type(exc).__name__}: {exc}"
        first = self.verdicts.get(job.id)
        if first is not None:
            if error is not None:
                return d, [error]
            return d, first[1] if d == first[0] else ["result changed between passes"]
        if error is not None:
            problems = [error]
        else:
            try:
                problems = list(job.check(result))
            except Exception as exc:
                problems = [f"check: {type(exc).__name__}: {exc}"]
            want = None if job.known_defect else self.expected.get(job.id)
            if want is not None and want != d:
                problems.append(f"digest {d}, expected {want}")
        self.verdicts[job.id] = (d, problems)
        return d, problems

    def _sample_reference(self) -> None:
        start = time.perf_counter()
        reference()
        self.reference.append((start, time.perf_counter() - start))

    def _traced_call(self, job):
        """The job with the layer boundaries wrapped; they are unwrapped
        again for the checks and for untraced passes."""
        self.tracer.install()
        try:
            return self.tracer.call("bench.job", job.call)
        finally:
            self.tracer.uninstall()
            self.tracer.reset_stack()

    def one_pass(self, traced: bool) -> None:
        latencies = []
        for job in self.jobs:
            error = result = None
            if not traced and (not self.reference or time.perf_counter() - self.reference[-1][0] >= REFERENCE_EVERY):
                self._sample_reference()
            start = time.perf_counter()
            try:
                result = self._traced_call(job) if traced else job.call()
            except Exception as exc:  # RecursionError included: it is a failed job
                error = f"{type(exc).__name__}: {str(exc)[:200]}"
            latencies.append(time.perf_counter() - start)
            if not traced:
                self.timing[job.id].append((start, latencies[-1]))
            _, problems = self._verdict(job, result, error)
            self.attempted += 1
            if problems:
                self.failed += 1
                if not job.known_defect:
                    self.unexpected[job.id] = problems
        if not traced:
            self._sample_reference()
        self.passes.append({"traced": traced, "job_s": sum(latencies)})

    def relative_times(self) -> dict[str, list[float]]:
        """Each untraced execution time divided by the median reference
        time sampled within REFERENCE_WINDOW of the execution, or within the
        execution's own duration when that is longer: samples are taken only
        between jobs, and a long job needs more of them than lie close by."""
        starts = [t for t, _ in self.reference]
        out = {}
        for job_id, runs in self.timing.items():
            out[job_id] = []
            for start, seconds in runs:
                window = max(REFERENCE_WINDOW, seconds)
                lo = bisect.bisect_left(starts, start - window)
                hi = bisect.bisect_right(starts, start + seconds + window)
                # The sample taken just before a job always falls in its window.
                out[job_id].append(seconds / statistics.median(d for _, d in self.reference[lo:hi]))
        return out

    def run(self, seconds: float, between=None) -> None:
        """Passes until `seconds` are used; `between()` runs after each pass."""
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and len(self.passes) % 2 == 1
            began = time.perf_counter()
            self.one_pass(traced)
            if between is not None:
                between()
            now = time.perf_counter()
            enough = len(self.passes) >= (2 if self.tracer else 1)
            if enough and now - start + (now - began) > seconds:
                return


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def job_and_ops(times: dict[str, list[float]]) -> tuple[float, float, float]:
    """Each job's median over the passes, summed (one pass of the job list)
    and at its p50 and p99 over the job list."""
    medians = sorted(statistics.median(v) for v in times.values())
    return sum(medians), percentile(medians, 50), percentile(medians, 99)


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    job, p50, p99 = job_and_ops(run.relative_times())
    return {
        # Each probe in units of the reference its interpreter timed, given
        # back in seconds at the reference's full-speed time (NOTES.md).
        "setup_s": (statistics.median(s / r for s, r in setup) * REFERENCE_NOMINAL_S, "s"),
        "job_ref": (job, "ref"),
        "op_p50_ref": (p50, "ref"),
        "op_p99_ref": (p99, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - run.failed / run.attempted, "ratio"),
    }


def seconds_taken(run: Run, setup: list[tuple[float, float]]) -> dict[str, float]:
    """The same statistics in plain seconds, for the run record."""
    job, p50, p99 = job_and_ops({k: [s for _, s in v] for k, v in run.timing.items()})
    reference_s = statistics.median(d for _, d in run.reference)
    out = {"setup_s": statistics.median(s for s, _ in setup)} if setup else {}
    return out | {"job_s": job, "op_p50_ms": p50 * 1000, "op_p99_ms": p99 * 1000, "reference_ms": reference_s * 1000}


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    import tracing

    traced = [p["job_s"] for p in run.passes if p["traced"]]
    plain = [p["job_s"] for p in run.passes if not p["traced"]]
    out = tracing.layer_metrics(run.tracer, len(traced))
    out["trace.job_s"] = (statistics.median(traced), "s")
    out["trace.untraced_job_s"] = (statistics.median(plain), "s")
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return out


def git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    code = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        code = max(code, subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], cwd=ROOT).returncode)
    return code


def write_digests() -> int:
    """Store the digests of the default and held-out seeds; seed-independent
    jobs go under "fixed".  Refuses when any check fails."""
    doc = {"fixed": {}, "seeds": {}}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        doc["seeds"][str(seed)] = {}
        for workload in WORKLOADS:
            run = Run(load_jobs(workload, seed, False), {})
            run.one_pass(False)
            if run.unexpected:
                print(f"{workload}: {run.unexpected}", file=sys.stderr)
                return 1
            for job in run.jobs:
                if job.known_defect:
                    continue
                section = doc["seeds"][str(seed)] if job.seeded else doc["fixed"]
                section[job.id] = run.verdicts[job.id][0]
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="short job lists, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true", help="regenerate expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "freegp" / "__init__.py").is_file():
        print(f"freegp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_digests:
        return write_digests()
    if args.workload == "all":
        return run_all(args)
    tail = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    if args.setup_probe:
        load_jobs(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        print(statistics.median(reference_seconds(SETUP_REFERENCES)))
        return 0

    load_start = os.getloadavg()
    setup: list[tuple[float, float]] = []  # (seconds, the probe's reference seconds)

    def probe() -> None:
        # Spread over the run, so that one slow spell of the host does not
        # catch every probe.
        if not args.trace and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(tail))

    probe()
    jobs = load_jobs(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run = Run(jobs, expected_digests(args.seed), tracer)
    run.run(args.seconds, probe)
    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "passes": len(run.passes),
        "jobs_per_pass": len(jobs),
        "latency_samples": sum(len(v) for v in run.timing.values()),
        "reference_samples": len(run.reference),
        "seconds_taken": seconds_taken(run, setup),
        "setup_probes": [{"seconds": s, "reference_s": r} for s, r in setup],
        "pass_job_s": [(p["traced"], p["job_s"]) for p in run.passes],
        "job_timing": run.timing,  # (start, seconds) of every untraced execution
        "reference_timing": run.reference,
        "unexpected_failures": run.unexpected,
        "known_defect_jobs": sorted(j.id for j in jobs if j.known_defect),
        "jobs": [{"id": j.id, "shape": j.shape, "digest": run.verdicts[j.id][0]} for j in jobs],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json", {"workload": args.workload, "seed": args.seed})

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, {args.seconds:g} s")
    print(f"# python {record['python']}, nproc {record['nproc']}, cpu {record['cpu']}, commit {record['commit']}")
    print(f"# loadavg start {load_start[0]:.2f}, end {record['loadavg_end'][0]:.2f}")
    print(
        f"# passes {record['passes']}, jobs per pass {len(jobs)}, latency samples {record['latency_samples']},"
        f" setup probes {len(setup)}, failed {run.failed}/{run.attempted}"
        f" (known defects: {sum(1 for j in jobs if j.known_defect)} jobs per pass)"
    )
    print("# in seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in record["seconds_taken"].items()))
    for job_id, problems in run.unexpected.items():
        print(f"# FAILED {job_id}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

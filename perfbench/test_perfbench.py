"""The benchmark's own tests.  Run with: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload, expected=None, tracer=None, passes=2):
    jobs = bench.load_jobs(workload, bench.DEFAULT_SEED, smoke=True)
    run = bench.Run(jobs, bench.expected_digests(bench.DEFAULT_SEED) if expected is None else expected, tracer)
    for i in range(passes):
        run.one_pass(tracer is not None and i % 2 == 1)
    return run


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    run = smoke_run(workload)
    assert not run.unexpected
    # Only the known-defect inputs fail, so failed ÷ attempted is exactly their share.
    defects = sum(1 for job in run.jobs if job.known_defect)
    assert run.failed == 2 * defects
    assert run.attempted == 2 * len(run.jobs)


def test_known_defects_are_a_fixed_share_of_queries():
    for seed in (bench.DEFAULT_SEED, bench.HELDOUT_SEED, 17):
        jobs = bench.load_jobs("queries", seed, smoke=False)
        assert len(jobs) == 1000
        assert sum(1 for job in jobs if job.known_defect) == 20


def test_corrupted_digest_is_a_failed_job():
    expected = bench.expected_digests(bench.DEFAULT_SEED)
    expected["classify/space-n2"] = "0" * 16
    run = smoke_run("classify", expected)
    assert list(run.unexpected) == ["classify/space-n2"]
    assert "expected 0000000000000000" in run.unexpected["classify/space-n2"][-1]
    assert run.failed == 2


DIGESTS = """
import json, sys
sys.path[:0] = [sys.argv[1]]
import run as bench
out = {}
for w in bench.WORKLOADS:
    r = bench.Run(bench.load_jobs(w, bench.DEFAULT_SEED, smoke=True), {})
    r.one_pass(False)
    out.update({k: v[0] for k, v in r.verdicts.items()})
print(json.dumps(out, sort_keys=True))
"""


def test_digests_do_not_depend_on_hash_seed():
    outputs = []
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", DIGESTS, str(HERE)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])) > 80


def test_self_times_add_up_to_traced_job_time():
    import freegp.linalg

    tracer = tracing.Tracer()
    run = smoke_run("classify", tracer=tracer)
    # The boundaries are unwrapped outside traced jobs.
    assert not hasattr(freegp.linalg.RowReducer.__dict__["add"], "__wrapped__")
    assert not run.unexpected
    root = tracer.stats["bench.job"]
    assert root[0] == len(run.jobs)
    total_self = sum(v[2] for v in tracer.stats.values())
    assert total_self == pytest.approx(root[1], rel=1e-9)
    assert tracer.stats["linalg.add"][0] > 0


def test_reduce_never_calls_linalg():
    tracer = tracing.Tracer()
    smoke_run("reduce", tracer=tracer)
    assert tracer.stats["gp.bracket"][0] > 0
    assert not [name for name in tracer.stats if name.startswith("linalg.")]


def test_install_patches_every_namespace_and_uninstall_restores_it():
    import freegp.gp
    import freegp.identities
    import freegp.linalg

    solve, mul = freegp.linalg.solve, freegp.gp.GPPoly.__dict__["__mul__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # `from .linalg import solve` bound the name in identities too.
        assert freegp.identities.solve is freegp.linalg.solve is not solve
        assert freegp.identities.solve.__wrapped__ is solve
        assert freegp.gp.GPPoly.__dict__["__rmul__"] is freegp.gp.GPPoly.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    assert freegp.identities.solve is freegp.linalg.solve is solve
    assert freegp.gp.GPPoly.__dict__["__rmul__"] is freegp.gp.GPPoly.__dict__["__mul__"] is mul


def run_command(trace, cwd=ROOT):
    command = SPEC["command"] + ["--workload", "reduce", "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(trace, section):
    done = run_command(trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"\n{name} " in "\n" + done.stdout  # printed by name with its unit


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

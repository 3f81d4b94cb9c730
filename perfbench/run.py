"""The qchar benchmark: time each workload end to end in fresh interpreters,
check every output, and compare two sets of results.

    python3 perfbench/run.py --workload char-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.log new.log

A run starts one throwaway ``import qchar`` to warm the file cache, then
cold jobs (``job.py``) one after another until the next one would end after
``--seconds``.  At least one job runs; with ``--trace 1`` untraced and
traced jobs alternate and at least one of each runs.  Every job is a fresh
process, so every job sees the cold caches a ``qchar`` user sees.  Each
end-to-end metric is the median over the run's untraced jobs.

The run prints a ``{"record": ...}`` line (samples, stamp, problems) and
then the result line.  ``--compare`` reads such output, saved from runs on
two versions of the code, and prints a verdict per workload and metric.
The exit code is 0 when every output passed its gate, 1 when one did not,
and 2 when the checkout has no ``src/qchar``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import compare
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Every run must end within 180 s: each child is stopped by this time.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The yardstick: a fresh interpreter importing sympy, code that no change to
# qchar touches.  The 2-CPU virtual machine the benchmark was built on runs
# the same cold job up to 2x slower for minutes at a time, and slows
# interpreter start-up and imports in about the same proportion.  So jobs
# and yardsticks alternate, and each job's times are reported at the speed
# where the mean of the yardsticks on either side takes YARDSTICK_S.  Raw
# times stay in the record.
YARDSTICK = "import time, sympy; print('{\"import_done\": %.9f}' % time.monotonic())"
YARDSTICK_S = 0.5


class JobFailed(Exception):
    pass


def spawn(argv: list, hard_deadline: float) -> dict:
    """Run ``argv`` in a fresh interpreter and return the JSON object on the
    last line of its output plus ``setup_s`` (spawn to the ``import_done``
    time it printed) and ``elapsed`` (spawn to exit)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, hard_deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise JobFailed("%s did not finish before the run's time limit" % argv)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise JobFailed("%s exited %d: %s" % (argv, proc.returncode, proc.stderr[-800:]))
    out = json.loads(lines[-1])
    out["setup_s"] = out["import_done"] - t0
    out["elapsed"] = elapsed
    return out


def scaled(job: dict, key: str) -> float:
    """A time of ``job`` at the speed where the yardstick takes YARDSTICK_S."""
    return job[key] * YARDSTICK_S / job["yardstick_s"]


def git_state():
    """(rev, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return rev, bool(status.strip())


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(seed: int, env: dict) -> dict:
    rev, dirty = git_state()
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": env.get("python"),
        "sympy": env.get("sympy"),
        "sympy_ground_types": env.get("ground_types"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "pythonhashseed": "0",
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workload's jobs for ``seconds`` and return the record."""
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    ops = workloads.ops_per_job(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv" % (workload, seed))

    spawn([JOB, json.dumps({"setup_only": True})], hard)
    before = spawn(["-c", YARDSTICK], hard)["setup_s"]
    kinds = (False, True) if trace else (False,)
    jobs = {kind: [] for kind in kinds}
    attempted = failed = 0
    problems = []
    while True:
        traced = kinds[sum(len(j) for j in jobs.values()) % len(kinds)]
        if all(jobs.values()):
            estimate = statistics.median(j["elapsed"] for j in jobs[traced])
            if time.monotonic() + estimate > min(deadline, hard):
                break
        spec = {"workload": workload, "seed": seed}
        if traced:
            spec["spans"] = spans_path
        attempted += ops
        try:
            job = spawn([JOB, json.dumps(spec)], hard)
            after = spawn(["-c", YARDSTICK], hard)
        except JobFailed as exc:
            failed += ops
            problems.append(str(exc))
            break
        job["yardstick_s"] = (before + after["setup_s"]) / 2
        job["elapsed"] += after["elapsed"]
        before = after["setup_s"]
        failed += job["failed"]
        problems += job["problems"]
        jobs[traced].append(job)

    untraced = jobs[False]
    samples = {
        "wall_s": [scaled(j, "wall_s") for j in untraced],
        "setup_s": [scaled(j, "setup_s") for j in untraced],
        "peak_rss_mb": [j["peak_rss_mb"] for j in untraced],
        "raw_wall_s": [j["wall_s"] for j in untraced],
        "raw_setup_s": [j["setup_s"] for j in untraced],
        "yardstick_s": [j["yardstick_s"] for j in untraced],
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and all(jobs.values()),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "problems": problems[:10],
        "stamp": stamp(seed, untraced[0]["env"] if untraced else {}),
        "samples": samples,
        "metrics": {},
    }
    if not untraced:
        return record
    values = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    units = END_TO_END_UNITS
    if trace and jobs[True]:
        samples["traced_wall_s"] = [scaled(j, "wall_s") for j in jobs[True]]
        overhead = statistics.median(samples["traced_wall_s"]) - values["wall_s"]
        values = tracing.median_metrics([j["layers"] for j in jobs[True]])
        values["trace.overhead_s"] = overhead
        units = {s["name"]: s["unit"] for s in tracing.metric_specs()}
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["missing_layers"] = jobs[True][0]["missing_layers"]
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(args.compare[0], args.compare[1], os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qchar", "__init__.py")):
        sys.stderr.write("perfbench: no src/qchar under %s\n" % ROOT)
        return 2

    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except JobFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    for problem in record["problems"]:
        sys.stderr.write("perfbench: %s\n" % problem)
    print(json.dumps({"record": record}))
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One cold job in a fresh interpreter.

``run.py`` starts this script once per job and reads the JSON object on the
last line of its output:

    python3 perfbench/job.py '{"workload": "char-ladder", "seed": 1}'
    python3 perfbench/job.py '{"workload": "verify-series", "seed": 1, "spans": "s.tsv"}'
    python3 perfbench/job.py '{"setup_only": true}'

The first statements import ``qchar`` from the checkout's ``src`` and note
the time, so the parent can take set-up time as the span from spawning this
process to that moment (both read the system-wide monotonic clock).  With
``spans`` set, the job runs traced and writes its spans to that
path.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "qchar", "__init__.py")):
    sys.exit("perfbench: no src/qchar under %s" % ROOT)
sys.path.insert(0, SRC)

import qchar  # noqa: E402

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

from qchar import cli, verify  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _error(exc: BaseException) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def run_char_ladder(seed: int):
    """Time `qchar char` on every ladder case; returns (wall, failed, problems)."""
    cases = workloads.ladder_cases(seed)
    inputs = [(case, cli.parse_n_flag(case[2], case[0], case[1])) for case in cases]
    outputs = []
    start = time.perf_counter()
    for case, n in inputs:
        try:
            outputs.append((case, cli.render_character(cli.character_payload(n), "json")))
        except Exception as exc:  # noqa: BLE001 - one failed op, the job goes on
            outputs.append((case, exc))
    wall = time.perf_counter() - start
    failed, problems = 0, []
    for case, text in outputs:
        if isinstance(text, Exception):
            bad, problem = 1, "%s: %s" % (case, _error(text))
        else:
            bad, problem = workloads.gate_character(case, text)
        failed += bad
        if problem:
            problems.append(problem)
    return wall, failed, problems


def run_verify(workload: str, seed: int):
    """Time the workload's verify calls; returns (wall, failed, problems)."""
    calls = workloads.verify_calls(workload, seed)
    results = []
    start = time.perf_counter()
    for fn, args, kwargs, _ in calls:
        try:
            results.append(getattr(verify, fn)(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - its points fail, the job goes on
            results.append(exc)
    wall = time.perf_counter() - start
    failed, problems = 0, []
    for (fn, args, _, expected), result in zip(calls, results):
        if isinstance(result, Exception):
            bad, problem = workloads.expected_ops(expected), _error(result)
        else:
            bad, problem = workloads.gate_verify(result, expected)
        failed += bad
        if problem:
            problems.append("%s%s: %s" % (fn, args, problem))
    return wall, failed, problems


def ground_types() -> str:
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        from sympy.polys.domains import GROUND_TYPES
    return GROUND_TYPES


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = {"import_done": IMPORT_DONE}
    if not spec.get("setup_only"):
        workload, seed = spec["workload"], spec["seed"]
        run = run_char_ladder if workload == "char-ladder" else lambda s: run_verify(workload, s)
        tracer = tracing.Tracer() if spec.get("spans") else None
        if tracer is None:
            wall, failed, problems = run(seed)
        else:
            with tracer.installed():
                wall, failed, problems = run(seed)
            out["layers"] = tracer.metrics()
            out["missing_layers"] = tracer.missing
            tracer.write_spans(spec["spans"])
        import sympy

        out.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            failed=failed,
            problems=problems[:5],
            env={
                "python": sys.version.split()[0],
                "sympy": sympy.__version__,
                "ground_types": ground_types(),
                "qchar_file": qchar.__file__,
            },
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

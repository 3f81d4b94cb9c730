"""The benchmark's workloads: the fixed job each one times, and the gates
that decide whether the job's outputs are correct.

A job is a list of calls into qchar's public API.  Every call is looked up
on its module when it runs, never bound early, so the traced run's wrappers
see it.  The expected values below were recorded at the commit that added
the benchmark; a later change that alters any of them fails the gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("char-ladder", "verify-operators", "verify-kernels", "verify-series")

# `qchar char` cases: (rank, level, --n flag) -> SHA-256 of the JSON output.
# The ROADMAP ladder with its rank-4 case n=(1,2,2,1) (5-9 s cold on a 2-CPU
# box, where one run has about 30 s) replaced by n=(1,1,1,1), plus the
# rank-1 and level-2 cases.
LADDER = {
    (2, 1, "5,5"): "c7f23a1f7774ce4625bd9b60de82f7fac5e65570dbe8a2a4297b16c376af7976",
    (3, 1, "3,3,3"): "8c0451ac8be541f7514085fdb96ed35a3a356feb765184bc14bfebf74fa22972",
    (2, 3, "1,1;1,1;2,2"): "b34cad46ac1a95076cb4631f78f3bb92e9b35ae062d779361ed1acf84bee3e95",
    (4, 1, "1,1,1,1"): "5ec31b38b6e88b701280ffcbe14d085c8adfa356d2afcc399f19692e26e64a46",
    (1, 1, "12"): "79a25e5ee7f2945bc1995dc4655bb3f77b86063e04f7624162527900d28da764",
    (2, 2, "2,2;2,2"): "a18c77b9775dfc4655ca61a594d55712bccbb107e2e64d9496adf41bdd39d635",
}


def _swap_window(a, b):
    return range(-(b - a + 1), b - a + 2)


def verify_calls(workload: str, seed: int) -> list:
    """The verify calls of a workload: (function name on ``qchar.verify``,
    args, kwargs, expected).  ``expected`` is the list of (report name,
    point count) the call returns, or ``True`` for a ``*_holds`` call."""
    if workload == "verify-operators":
        # The four operator suites cut to about 2 s cold: qsystem at rank 2
        # degree 4 and rank 3 degree 2 (the default degree 6 takes 12 s),
        # diffeq without its rank-3 grids and without the two slowest grids
        # (r=2, k=3 and the level-2 G recursion, 1.2 s and 1.4 s alone).
        return [
            ("run_suite", ("qsystem",), {"rank": 2, "bound": 4}, [("qsystem", 660)]),
            ("run_suite", ("qsystem",), {"rank": 3, "bound": 2}, [("qsystem", 544)]),
            ("check_level1_report", (1, 5), {}, [("diffeq-level1-r1", 1)]),
            ("check_level1_report", (2, 5), {}, [("diffeq-level1-r2", 1)]),
            ("check_sl3_level1_G", (5,), {}, [("sl3-level1-G", 43)]),
            ("check_difference_equation", (1, 2, 5), {}, [("diffeq-r1-k2", 10)]),
            ("check_difference_equation", (1, 3, 5), {}, [("diffeq-r1-k3", 20)]),
            ("check_difference_equation", (2, 2, 5), {}, [("diffeq-r2-k2", 5)]),
            ("check_sl2_levelk_G", (2, 5), {}, [("sl2-levelk-G", 10)]),
            ("run_suite", ("eigen",), {}, [("eigen-r1", 5), ("eigen-r2", 30), ("eigen-r3", 105)]),
            ("run_suite", ("limits",), {}, [("limits", 205)]),
        ]
    if workload == "verify-kernels":
        # The lemma grid at bound 2, the bound-3 swap products with a < 3
        # and the a=1, b=4 swap products (the a=b=3 swap and the a=3 square
        # take 18 s and 30 s alone), then the torus suite with its recursion
        # table cut at k=5 (k=6 alone takes 4 s).  The seed draws the torus
        # words and random elements.
        calls = [("run_suite", ("lemmas",), {"bound": 2}, [("lemmas", 85)])]
        for a, b in ((1, 3), (2, 3), (1, 4)):
            calls += [
                ("subset_swap_identity_holds", (a, b, p), {}, True) for p in _swap_window(a, b)
            ]
        calls.append(("check_torus", (3,), {"k_max": 5, "seed": seed}, [("torus", 869)]))
        return calls
    if workload == "verify-series":
        # Whittaker at series order 10 instead of 20 (16 s alone), and the
        # Macdonald suite at weight 3 instead of 4.
        return [
            ("check_whittaker", (10,), {}, [("whittaker", 15)]),
            ("run_suite", ("macdonald",), {"bound": 3}, [("macdonald", 28), ("macdonald-commuting", 11)]),
        ]
    raise ValueError("unknown workload %r" % workload)


def ladder_cases(seed: int) -> list:
    """The char-ladder cases in the order the seed draws."""
    cases = sorted(LADDER)
    random.Random(seed).shuffle(cases)
    return cases


def expected_ops(expected) -> int:
    return 1 if expected is True else sum(points for _, points in expected)


def ops_per_job(workload: str, seed: int) -> int:
    """Ops one job attempts: ladder cases, or recorded verify points."""
    if workload == "char-ladder":
        return len(LADDER)
    return sum(expected_ops(call[3]) for call in verify_calls(workload, seed))


def gate_verify(result, expected) -> tuple:
    """(failed ops, problem or None) for one verify call's result.  A report
    whose name or point count differs from the recording fails all its
    points; otherwise each failed point counts once."""
    if expected is True:
        return (0, None) if result is True else (1, "returned %r" % (result,))
    reports = result if isinstance(result, list) else [result]
    got = [(r.name, r.total) for r in reports]
    if len(got) != len(expected):
        return expected_ops(expected), "reports %s, expected %s" % (got, expected)
    failed, problems = 0, []
    for rep, (name, points), have in zip(reports, expected, got):
        if have != (name, points):
            failed += points
            problems.append("report %s, expected %s" % (have, (name, points)))
        elif rep.failures:
            failed += len(rep.failures)
            problems.append("%s: %s" % (name, rep.failures[0]))
    return failed, "; ".join(problems) or None


def weyl_dim(lam) -> int:
    """Dimension of the sl(N) irreducible with highest weight ``lam`` (a
    weakly decreasing length-N integer vector), by the Weyl formula."""
    n = len(lam)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    num = math.prod(lam[x] - lam[y] + y - x for x, y in pairs)
    den = math.prod(y - x for x, y in pairs)
    return num // den


def dimension_identity_holds(text: str) -> bool:
    """At q = 1 the character is the tensor product of the KR modules, which
    restrict to the rectangles (i^a): so sum_lam K_lam(1) dim V_lam must
    equal prod_{a,i} dim V_{(i^a)} ** n_i^(a).  Uses the JSON text only."""
    payload = json.loads(text)
    nvars = payload["rank"] + 1
    lhs = 0
    for key, pairs in payload["character"].items():
        lam = tuple(int(x) for x in key.strip("()").split(","))
        if len(lam) != nvars:
            return False
        lhs += sum(c for _, c in pairs) * weyl_dim(lam)
    rhs = 1
    for a, row in enumerate(payload["n"], start=1):
        for i, mult in enumerate(row, start=1):
            rect = (i,) * a + (0,) * (nvars - a)
            rhs *= weyl_dim(rect) ** mult
    return lhs == rhs


def gate_character(case, text: str) -> tuple:
    """(failed ops, problem or None) for one `qchar char` output."""
    if hashlib.sha256(text.encode()).hexdigest() != LADDER[case]:
        return 1, "%s: digest differs from the recording" % (case,)
    if not dimension_identity_holds(text):
        return 1, "%s: dimension identity fails" % (case,)
    return 0, None

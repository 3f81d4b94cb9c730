import json
import os

import pytest

import run
import tracing
import workloads
from qchar import cli, verify
from qchar.verify import CheckReport

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize(
    "lam, dim",
    [((3, 0), 4), ((1, 0, 0), 3), ((1, 1, 0), 3), ((2, 1, 0), 8), ((2, 2, 0), 6), ((1, 1, 0, 0), 6), ((2, 1, 1), 3)],
)
def test_weyl_dimension(lam, dim):
    assert workloads.weyl_dim(lam) == dim


@pytest.mark.parametrize(
    "rank, level, n", [(1, 1, "3"), (1, 2, "1;2"), (1, 3, "2;0;1"), (2, 1, "1,1"), (2, 1, "2,0"), (2, 2, "1,0;0,1")]
)
def test_dimension_identity_on_small_characters(rank, level, n):
    text = cli.render_character(cli.character_payload(cli.parse_n_flag(n, rank, level)), "json")
    assert workloads.dimension_identity_holds(text)
    payload = json.loads(text)
    top = next(iter(payload["character"]))
    payload["character"][top][0][1] += 1
    assert not workloads.dimension_identity_holds(json.dumps(payload))


def test_character_gate_checks_the_digest():
    case = (1, 1, "12")
    text = cli.render_character(cli.character_payload(cli.parse_n_flag(case[2], 1, 1)), "json")
    assert workloads.gate_character(case, text) == (0, None)
    failed, problem = workloads.gate_character(case, text.replace("]]}", "]]} "))
    assert failed == 1 and "digest" in problem


def test_verify_gate_counts_points():
    expected = [("a", 3), ("b", 2)]
    good = [CheckReport("a", total=3), CheckReport("b", total=2)]
    assert workloads.gate_verify(good, expected) == (0, None)
    bad = CheckReport("b", total=2)
    bad.record("x", False)
    bad.total = 2
    assert workloads.gate_verify([good[0], bad], expected)[0] == 1
    assert workloads.gate_verify([good[0], CheckReport("b", total=1)], expected)[0] == 2
    assert workloads.gate_verify([good[0]], expected)[0] == 5
    assert workloads.gate_verify(False, True)[0] == 1
    assert workloads.gate_verify(verify.check_eigen(1, 2), [("eigen-r1", 3)]) == (0, None)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["per_layer"] == tracing.metric_specs()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS

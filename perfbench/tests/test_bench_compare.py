import json

import compare


def _runs(values):
    return {seed: v for seed, v in enumerate(values, start=1)}


BASE = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.05]


def test_verdicts():
    assert compare.verdict(_runs(BASE), _runs([v * 0.7 for v in BASE]), 0.1, "lower") == "improved"
    assert compare.verdict(_runs(BASE), _runs([v * 1.02 for v in BASE]), 0.1, "lower") == "within bound"
    assert compare.verdict(_runs(BASE), _runs([v * 1.3 for v in BASE]), 0.1, "lower") == "worse"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(_runs(BASE), _runs(wide), 0.1, "lower") == "unresolved"
    assert compare.verdict(_runs(BASE), _runs([v * 1.3 for v in BASE]), 0.1, "higher") == "improved"


def test_rows_pair_runs_from_saved_output(tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for seed, v in enumerate(values, start=1):
                record = {"workload": "w", "seed": seed, "trace": False, "metrics": {"wall_s": {"value": v, "unit": "s"}}}
                fh.write("noise\n" + json.dumps({"record": record}) + "\n" + json.dumps({"correct": True}) + "\n")

    write(tmp_path / "a.log", BASE)
    write(tmp_path / "b.log", [v * 0.5 for v in BASE])
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    (row,) = compare.rows(str(tmp_path / "a.log"), str(tmp_path / "b.log"), metrics)
    assert row["verdict"] == "improved"
    assert abs(row["ratio"] - 0.5) < 1e-12
    assert row["base"][3] == row["new"][3] == 10

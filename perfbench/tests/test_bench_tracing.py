import sys

import pytest

import tracing
from qchar import cli, verify
from qchar.characters import NVector
from qchar.laurent import LaurentPoly


def _tracer_with_spans(names, spans):
    tracer = tracing.Tracer()
    tracer.names = list(names)
    for nid, start, end, parent in spans:
        tracer.span_name.append(nid)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        tracer.span_parent.append(parent)
    return tracer


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]; a second a
    # [20, 22] has no children.
    tracer = _tracer_with_spans(
        ["a", "b", "c", "d"],
        [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0), (0, 20.0, 22.0, -1)],
    )
    inclusive, own, calls = tracer.times()
    assert own == {"a": 5.0, "b": 2.0, "c": 1.0, "d": 4.0}
    assert inclusive == {"a": 12.0, "b": 3.0, "c": 1.0, "d": 4.0}
    assert calls == {"a": 2, "b": 1, "c": 1, "d": 1}


def test_wrap_records_parents_work_and_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = tracer.wrap("inner", inner, work=lambda args, kwargs: args[0])

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = tracer.wrap("outer", outer)
    assert outer_w(3) == 6
    with pytest.raises(ValueError):
        outer_w(-1)
    assert list(tracer.span_parent) == [-1, 0, 0, -1, 3]
    _, _, calls = tracer.times()
    assert calls == {"inner": 3, "outer": 2}
    assert tracer.errors == {"inner": 1, "outer": 1}
    assert tracer.work == {"inner": 5}


def _qchar_bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "qchar" or name.startswith("qchar.")
        for key, value in list(vars(module).items())
    }


def _outputs():
    payload = cli.character_payload(NVector.from_levels(2, 2, [[1, 0], [0, 1]]))
    return cli.render_character(payload, "json"), verify.check_eigen(2, 2).to_json()


def test_install_wraps_every_binding_and_restores_identical_outputs():
    before = _qchar_bindings()
    mul, rmul = LaurentPoly.__dict__["__mul__"], LaurentPoly.__dict__["__rmul__"]
    plain = _outputs()
    tracer = tracing.Tracer()
    with tracer.installed():
        apply_m = sys.modules["qchar.qdiff"].apply_M
        assert apply_m is not before[("qchar.qdiff", "apply_M")]
        for module in ("qchar.characters", "qchar.verify", "qchar"):
            assert getattr(sys.modules[module], "apply_M") is apply_m
        assert LaurentPoly.__dict__["__mul__"] is LaurentPoly.__dict__["__rmul__"]
        assert LaurentPoly.__dict__["__mul__"] is not mul
        traced = _outputs()
    assert _qchar_bindings() == before
    assert LaurentPoly.__dict__["__mul__"] is mul and LaurentPoly.__dict__["__rmul__"] is rmul
    assert traced == plain == _outputs()

    metrics = tracer.metrics()
    names = {spec["name"] for spec in tracing.metric_specs()} - {"trace.overhead_s"}
    assert set(metrics) == names
    assert metrics["cli.character_payload.calls"] == 1
    assert metrics["verify.check_eigen.points"] == plain[1]["points"]
    assert metrics["laurent.mul.calls"] > 0 and metrics["laurent.mul.term_pairs"] > 0


def test_missing_layer_is_listed_and_skipped(monkeypatch):
    layers = tracing.LAYERS + (("qchar.gone", "qchar.laurent", "no_such_function", None, None),)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["qchar.laurent.no_such_function"]
    assert tracer.metrics()["qchar.gone.calls"] == 0

"""The benchmark's contract with the package, checked in the tier-1 suite:
every char-ladder case renders the JSON whose digest the benchmark records
and passes its dimension identity, every verify call of the three verify
workloads returns the reports, point counts and verdicts the benchmark
gates on, and every check the benchmark traces exists.  ``perfbench/`` is
only read."""

import os
import sys

import pytest

import qchar.characters as characters
import qchar.cli as cli
import qchar.macdonald as macdonald
import qchar.qdiff as qdiff
import qchar.symfun as symfun
import qchar.verify as verify

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("case", sorted(workloads.LADDER))
def test_ladder_case_passes_its_gate(case):
    rank, level, flag = case
    text = cli.render_character(cli.character_payload(cli.parse_n_flag(flag, rank, level)), "json")
    assert workloads.gate_character(case, text) == (0, None)


def test_ladder_builds_no_image():
    # a raising step groups its rows by branching key: building every
    # ladder character from scratch builds no per-s_lam image
    characters._CHAINS.clear()
    qdiff._image.cache_clear()
    for rank, level, flag in sorted(workloads.LADDER):
        cli.character_payload(cli.parse_n_flag(flag, rank, level))
    assert qdiff._image.cache_info().misses == 0


def test_equation_checks_unpack_no_value(monkeypatch):
    # every difference-equation point of verify-operators and verify-series
    # holds, and on cold caches its check sums packed values only: no
    # chain value or equation residual is unpacked
    equation_checks = {"check_level1_report", "check_sl3_level1_G", "check_difference_equation", "check_sl2_levelk_G"}
    calls = [call for workload in ("verify-operators", "verify-series") for call in workloads.verify_calls(workload, 1)]
    calls = [call for call in calls if call[0] in equation_checks]
    assert len(calls) == 7
    characters._CHAINS.clear()
    characters._equation_value.cache_clear()
    unpacked = []
    schur = qdiff.PackedSchur.schur
    monkeypatch.setattr(qdiff.PackedSchur, "schur", lambda self: unpacked.append(self) or schur(self))
    for fn, args, kwargs, expected in calls:
        assert workloads.gate_verify(getattr(verify, fn)(*args, **kwargs), expected) == (0, None), (fn, args)
    assert unpacked == []


def test_macdonald_suite_expands_no_schur_function(monkeypatch):
    # on cold caches, the commuting check and the eigen-solve of every lam of
    # the verify-series Macdonald suite run on m-forms: no Schur form is
    # expanded into all its monomials
    (bound,) = [kw["bound"] for fn, args, kw, _ in workloads.verify_calls("verify-series", 1) if args == ("macdonald",)]
    modules = (symfun, qdiff, macdonald, verify)
    for cached in [obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_clear")]:
        cached.cache_clear()
    expanded, expand = [], symfun._schur_monomials
    for mod in modules:
        if hasattr(mod, "_schur_monomials"):
            monkeypatch.setattr(mod, "_schur_monomials", lambda *args: expanded.append(args) or expand(*args))
    assert verify.check_macdonald_commuting().passed
    for nvars in (2, 3):
        for lam in symfun.partitions_up_to(bound, nvars):
            macdonald.macdonald_poly(lam, nvars)
    assert expanded == []


@pytest.mark.parametrize("workload", ["verify-operators", "verify-kernels", "verify-series"])
def test_verify_workload_calls_pass_their_gates(workload):
    for fn, args, kwargs, expected in workloads.verify_calls(workload, 1):
        result = getattr(verify, fn)(*args, **kwargs)
        assert workloads.gate_verify(result, expected) == (0, None), (fn, args, kwargs)


def test_traced_checks_exist():
    assert [name for name in tracing.CHECKS if not callable(getattr(verify, name, None))] == []


def test_traced_layers_resolve():
    # a layer the program no longer has reads 0 in every benchmark row, so a
    # rename of a traced function must fail here; these five are gone from
    # the program on purpose and wait to be dropped from the benchmark.
    # signed_buckets went when every alternant the program meets was read
    # into the Schur basis by straighten, so only the test oracles bucketed
    # signed orbits, and they do it by ref_signed_buckets.  apply_macdonald_qt
    # went last: the program runs the Macdonald operator on m-forms
    # (macdonald.apply_macdonald_m), and only the tests read its monomial
    # view, which oracles.apply_macdonald_qt now gives
    missing = []
    for prefix, module, attr, _, _ in tracing.LAYERS:
        try:
            tracing._resolve(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(prefix)
    assert sorted(missing) == [
        "laurent.exact_div",
        "laurent.signed_buckets",
        "qdiff.apply_macdonald_qt",
        "symfun.schur_expand",
        "whittaker.check_level1_toda",
    ]

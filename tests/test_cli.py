"""Command-line interface tests: formats, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

import qchar.cli as cli
import qchar.rings as rings
from qchar.rings import NotDivisible
from qchar.verify import SUITE_FLAGS

# every exception class the package's rings module defines
RING_ERRORS = sorted(
    (c for c in vars(rings).values() if isinstance(c, type) and issubclass(c, Exception)),
    key=lambda c: c.__name__,
)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "qchar.cli", *args],
        capture_output=True,
        text=True,
    )


def test_char_json_matches_schema():
    out = run_cli(["char", "--rank", "2", "--level", "1", "--n", "1,1"])
    assert out.returncode == 0
    assert (
        out.stdout
        == '{"schema":1,"rank":2,"level":1,"n":[[1],[1]],"character":'
        '{"(2,1,0)":[[0,1]],"(1,1,1)":[[-1,1]]}}\n'
    )


def test_char_values():
    out = run_cli(["char", "--rank", "1", "--level", "1", "--n", "2"])
    data = json.loads(out.stdout)
    assert data["character"] == {"(2,0)": [[0, 1]], "(1,1)": [[-1, 1]]}
    out = run_cli(["char", "--rank", "2", "--level", "1", "--n", "0,0"])
    data = json.loads(out.stdout)
    assert data["character"] == {"(0,0,0)": [[0, 1]]}


def test_byte_determinism():
    a = run_cli(["char", "--rank", "2", "--level", "2", "--n", "1,0;0,1"])
    b = run_cli(["char", "--rank", "2", "--level", "2", "--n", "1,0;0,1"])
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_formats():
    text = run_cli(["char", "--rank", "1", "--level", "1", "--n", "1", "--format", "text"])
    assert "(1,0) : 1" in text.stdout
    csv = run_cli(["char", "--rank", "1", "--level", "1", "--n", "2", "--format", "csv"])
    assert csv.stdout.splitlines()[0] == "partition,q_exponent,coefficient"
    assert '"(1,1)",-1,1' in csv.stdout


@pytest.mark.parametrize(
    "flag, digest",
    [
        ("1,2,2,1", "831535b6ffa0e60f89ccc553d1991ccf743265d45c9f5cb80ccf9dc33085008f"),
        ("2,1,1,2", "c6ae041758696c71a37a40eaed47f5e480ef8edc84d84c3da3cd5c26e1967992"),
    ],
)
def test_rank4_ladder_digests(flag, digest):
    # SHA-256 of the JSON output as computed by the monomial (orbit) kernel
    out = run_cli(["char", "--rank", "4", "--n", flag])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "rank, flag, digest",
    [
        (1, "40", "6c8cc54da0667d1e2259e21d0daab3b0938edcfb4feae2e57d67e6ec14582435"),
        (2, "12,12", "e38f30d64edd9e67b37e87bb57a4c4d90ebd98c059b8e3e9a6768e7f33ed8a20"),
    ],
)
def test_frontier_digests_past_32_bit_widths(rank, flag, digest):
    # SHA-256 of the JSON output as computed by the dict chain; the packed
    # chain derives widths past 32 bits for both (53 and 43 bits needed)
    import qchar.characters as characters

    out = run_cli(["char", "--rank", str(rank), "--n", flag])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest
    n = cli.parse_n_flag(flag, rank, 1)
    assert characters._chain(n, "M", characters.RING_Q).packing[0] > 32


def test_level3_littlewood_richardson_chain_digest():
    # SHA-256 of the JSON output before raising steps were grouped by
    # branching key: at rank 3 the alpha = 2 steps take the two-variable
    # Littlewood-Richardson fillings, with multiplicities above 1
    out = run_cli(["char", "--rank", "3", "--level", "3", "--n", "1,1,1;1,1,1;1,1,1"])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == "7e57f40617199701c05657214438ab054f840e31cf25822ed676d674ace15e83"


@pytest.mark.parametrize("fault", ["raised", "lowered", "extra q**0 term"])
def test_char_checks_read_the_packed_chain_value(fault, monkeypatch, capsys):
    # the two structural checks run on the packed value both views come
    # from: a chain raised by q (a positive q-exponent), lowered by q (no
    # q**0 part) or with a second s_lam at q**0 fails graded_character and
    # exits 3 from the CLI
    import qchar.characters as characters
    from qchar.laurent import pack
    from qchar.qdiff import PackedSchur

    real = characters._chain

    def faulty(n, op, ring):
        f = real(n, op, ring)
        if fault != "extra q**0 term":
            return f.times_unit(1 if fault == "raised" else -1)
        place, (s, rows) = -characters.char_q_exponent(n) - f.offset, f.packing
        return PackedSchur(f.ring, f.nvars, f.offset, s, {**rows, pack((0, 3, 0, 0)): (1, place, 1)})

    monkeypatch.setattr(characters, "_chain", faulty)
    message = "positive q-exponent" if fault == "raised" else "part differs from the top component"
    characters.graded_character.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=message):
            characters.graded_character(cli.parse_n_flag("1,1", 2, 1))
        assert cli.main(["char", "--rank", "2", "--n", "1,1"]) == 3
        assert message in capsys.readouterr().err
    finally:
        characters.graded_character.cache_clear()


def test_character_chain_builds_no_monomial_expansion(monkeypatch):
    import qchar.characters as characters
    import qchar.symfun as symfun

    n = cli.parse_n_flag("1,0,1;1,1,0", 3, 2)
    expected = cli.character_payload(n)

    def forbidden(*args, **kwargs):
        raise AssertionError("the character chain expanded a Schur polynomial or divided")

    # rebuild the whole chain: no cached form and no cached prefix
    characters.graded_character.cache_clear()
    characters._CHAINS.clear()
    monkeypatch.setattr(symfun, "_schur_zcoeffs", forbidden)
    # the one division helper, in every module that binds it
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "qchar"]:
        if hasattr(mod, "divide_binomial"):
            monkeypatch.setattr(mod, "divide_binomial", forbidden)
    assert cli.character_payload(n) == expected


def test_weight_form_input():
    plain = run_cli(["char", "--rank", "2", "--level", "1", "--n", "1,1"])
    weight = run_cli(["char", "--rank", "2", "--level", "1", "--n", "w1+w2"])
    assert weight.stdout == plain.stdout
    scaled = run_cli(["char", "--rank", "2", "--level", "1", "--n", "2*w1"])
    assert json.loads(scaled.stdout)["n"] == [[2], [0]]
    assert run_cli(["char", "--rank", "2", "--level", "2", "--n", "w1"]).returncode == 2
    assert run_cli(["char", "--rank", "2", "--level", "1", "--n", "w9"]).returncode == 2
    # a weight term that is not a nonnegative integer multiple of w<integer>,
    # or empty, is a usage error, not a traceback, a term silently dropped or
    # a weight subtracted; --n= keeps a leading "-" from reading as a flag
    for bad in ("w1+wx", "a*w1", "w1+", "w1++w2", "w1+-1*w1+w2", "-1*w1+2*w1"):
        out = run_cli(["char", "--rank", "2", "--level", "1", "--n=" + bad])
        assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr


def test_out_file(tmp_path):
    target = tmp_path / "char.json"
    out = run_cli(["char", "--rank", "1", "--level", "1", "--n", "1", "--out", str(target)])
    assert out.returncode == 0 and out.stdout == ""
    assert json.loads(target.read_text())["rank"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ["char", "--rank", "1", "--n", "1"],
        ["verify", "--suite", "whittaker", "--order", "2"],
    ],
)
def test_unwritable_out_path_exits_2(args, tmp_path):
    # a path that cannot be written is a usage error: one stderr line naming
    # it, no traceback, no output on stdout
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        out = run_cli([*args, "--out", str(target)])
        assert out.returncode == 2 and out.stdout == "", out.stderr
        assert out.stderr.splitlines() == [out.stderr.strip()]
        assert str(target) in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("suite", sorted(SUITE_FLAGS))
def test_every_listed_suite_flag_is_read(suite, capsys):
    # two small values of a flag the suite lists give different reports, so
    # no listed flag is ignored; the suite's other flags stay at the low value
    low = {"rank": "1", "bound": "1", "order": "2"}
    high = {"rank": "2", "bound": "2", "order": "3"}
    flags = SUITE_FLAGS[suite].split()
    for flag in flags:
        outputs = []
        for value in (low[flag], high[flag]):
            argv = ["verify", "--suite", suite]
            for other in flags:
                argv += ["--" + other, value if other == flag else low[other]]
            cli.main(argv)
            outputs.append(json.loads(capsys.readouterr().out)["reports"])
        assert outputs[0] != outputs[1], (suite, flag)


def test_usage_errors_exit_2():
    assert run_cli(["char", "--rank", "2", "--level", "1", "--n", "oops"]).returncode == 2
    assert run_cli(["char", "--rank", "2", "--level", "1", "--n", "1"]).returncode == 2
    assert run_cli(["verify", "--suite", "bogus"]).returncode == 2
    # a single suite given a flag it does not read names the flag; "all"
    # takes every flag one of its suites reads
    for args, flag in (
        (["--suite", "lemmas", "--rank", "2", "--bound", "1"], "--rank"),
        (["--suite", "torus", "--bound", "3", "--rank", "1"], "--bound"),
        (["--suite", "whittaker", "--rank", "2", "--order", "2"], "--rank"),
        (["--suite", "eigen", "--order", "5"], "--order"),
        (["--suite", "diffeq", "--rank", "1"], "--rank"),
        (["--suite", "macdonald", "--order", "1"], "--order"),
    ):
        out = run_cli(["verify", *args])
        assert out.returncode == 2 and out.stdout == "", args
        assert "--suite %s does not read %s" % (args[1], flag) in out.stderr, args
    assert run_cli([]).returncode == 2
    # --rank or --level below 1 is a usage error naming the minimum, not a
    # complaint about the shape of --n
    for flag in ("--rank", "--level"):
        args = ["char", "--rank", "2", "--level", "1", "--n", "1,1"]
        args[args.index(flag) + 1] = "0"
        out = run_cli(args)
        assert out.returncode == 2 and out.stdout == "" and "below the minimum 1" in out.stderr


def test_verify_suite_exit_codes(monkeypatch, capsys):
    # a passing suite exits 0 with a JSON report
    rc = cli.main(["verify", "--suite", "eigen", "--rank", "1", "--bound", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["passed"] is True and data["schema"] == 1

    # a failing check exits 1
    from qchar.verify import CheckReport

    def fake_suite(name, rank=None, bound=None, order=None):
        rep = CheckReport("stub")
        rep.record("point", False)
        return [rep]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    rc = cli.main(["verify", "--suite", "eigen"])
    assert rc == 1


@pytest.mark.parametrize("error", RING_ERRORS, ids=lambda c: c.__name__)
def test_verify_internal_error_exits_3(error, monkeypatch, capsys):
    # an internal identity violation of any kind the package raises exits 3
    def broken_suite(name, rank=None, bound=None, order=None):
        raise error("forced")

    monkeypatch.setattr(cli, "run_suite", broken_suite)
    assert cli.main(["verify", "--suite", "eigen"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "internal identity violation: forced\n"


def test_ring_errors_are_the_package_error_types():
    # the parametrization above covers every error type, and only those
    assert [c.__name__ for c in RING_ERRORS] == [
        "DegenerateEigenvalue", "ExponentNotDivisible", "ExponentOverflow", "NcNotDivisible",
        "NotDivisible", "NotSymmetric",
    ]


def test_char_internal_error_exit_3(monkeypatch, capsys):
    def broken(n):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "packed_character", broken)
    monkeypatch.setattr(
        cli, "character_payload", lambda n: (_ for _ in ()).throw(NotDivisible("forced"))
    )
    assert cli.main(["char", "--rank", "1", "--level", "1", "--n", "1"]) == 3


def test_verify_small_suite_end_to_end():
    out = run_cli(["verify", "--suite", "lemmas", "--bound", "2"])
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["passed"] and data["reports"][0]["name"] == "lemmas"


def test_verify_whittaker_stdout_pinned():
    out = run_cli(["verify", "--suite", "whittaker", "--order", "10"])
    assert out.returncode == 0
    assert out.stdout == (
        '{"schema":1,"suite":"whittaker","passed":true,"reports":[{"name":"whittaker",'
        '"points":15,"passed":true,"failures":[],"notes":{"residual-order":10}}]}\n'
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--suite", "all"], "c1517ecb174b96968447025048b74f60fa8d3b36b3836989fb3983d8c81ec338"),
        (["--suite", "limits", "--rank", "5", "--bound", "4"], "d8bda32da16e992349f0f98a3084fa41005cbb66ca08ed385dfbf084bdfd4d23"),
        (["--suite", "macdonald", "--bound", "8"], "1b05f7a3a0b31d998a955e0e7eed2352f91610b8a35f145eeeb25072b2220101"),
    ],
)
def test_verify_stdout_digests(args, digest):
    # every report's point count, verdict and notes, byte for byte
    out = run_cli(["verify", *args])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_verify_torus_stdout_pinned():
    out = run_cli(["verify", "--suite", "torus"])
    assert out.returncode == 0
    assert out.stdout == (
        '{"schema":1,"suite":"torus","passed":true,"reports":[{"name":"torus",'
        '"points":903,"passed":true,"failures":[],"notes":{"torus-words-sampled-r3":120}}]}\n'
    )


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "torus", "--rank", "-1"],
        ["--suite", "eigen", "--rank", "0"],
        ["--suite", "lemmas", "--bound", "-1"],
        ["--suite", "whittaker", "--order", "-1"],
    ],
)
def test_verify_out_of_range_arguments_exit_2(args):
    # out-of-range values are usage errors, never a silent default or an
    # empty grid that reads as a pass
    out = run_cli(["verify", *args])
    assert out.returncode == 2 and out.stdout == ""
    assert "below the minimum" in out.stderr


def test_verify_zero_bound_is_not_the_default():
    # an explicit 0 is a value, not a request for the default
    from qchar.verify import run_suite

    assert [r.total for r in run_suite("eigen", rank=1, bound=0)] == [1]
    assert [r.total for r in run_suite("eigen", rank=1)] == [5]


def test_verify_diffeq_stdout_pinned():
    out = run_cli(["verify", "--suite", "diffeq"])
    assert out.returncode == 0
    reports = [
        ("diffeq-level1-r1", 1, 6),
        ("diffeq-level1-r2", 1, 21),
        ("diffeq-level1-r3", 1, 56),
        ("sl3-level1-G", 43, None),
        ("diffeq-r1-k2", 10, 10),
        ("diffeq-r1-k3", 20, 20),
        ("diffeq-r2-k2", 5, 5),
        ("diffeq-r2-k3", 7, 7),
        ("diffeq-r3-k2", 1, 1),
        ("sl3-level2-G", 33, None),
        ("sl2-levelk-G", 10, 10),
    ]
    body = ",".join(
        '{"name":"%s","points":%d,"passed":true,"failures":[]%s}'
        % (name, points, "" if notes is None else ',"notes":{"points":%d}' % notes)
        for name, points, notes in reports
    )
    expected = '{"schema":1,"suite":"diffeq","passed":true,"reports":[%s]}\n' % body
    assert out.stdout == expected


def test_verify_vacuous_reports_are_marked():
    # the rank-1/rank-2 level-k grids and the level-2 G grid are empty at
    # bound 1: such a report checked nothing and must say so, and a run
    # with one does not pass, though no report failed
    out = run_cli(["verify", "--suite", "diffeq", "--bound", "1"])
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["passed"] is False and all(r["passed"] for r in payload["reports"])
    reports = payload["reports"]
    vacuous = [r["name"] for r in reports if r.get("vacuous")]
    assert vacuous == ["diffeq-r1-k2", "diffeq-r1-k3", "diffeq-r2-k2", "diffeq-r2-k3", "sl2-levelk-G"]
    assert all(r["points"] == 0 for r in reports if r["name"] in vacuous)
    assert all("vacuous" not in r for r in reports if r["points"])
    assert '"name":"diffeq-r1-k2","points":0,"passed":true,"vacuous":true,"failures":[]' in out.stdout


def test_import_loads_no_sympy():
    # nor dataclasses or inspect (about 20 ms of cold start), unless a bare
    # interpreter loads them already
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import qchar, qchar.cli, qchar.verify\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["char", "--rank", "1", "--n", "1"]])
def test_unwritable_out_path_exits_2_before_any_work(command, monkeypatch, tmp_path, capsys):
    # the --out path is checked before the run: a run that would fail (here
    # with an internal error, exit 3) never starts, and no file is created
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_suite", never)
    monkeypatch.setattr(cli, "character_payload", never)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main([*command, "--out", str(target)]) == 2
        err = capsys.readouterr()
        reason = "Is a directory" if target == tmp_path else "No such file or directory"
        assert err.out == "" and err.err == "qchar: cannot write --out %s: %s\n" % (target, reason)
    assert list(tmp_path.iterdir()) == []

    # a writable path still runs, and an exit-3 run creates no file
    def violation(*args, **kwargs):
        raise NotDivisible("boom")

    monkeypatch.setattr(cli, "run_suite", violation)
    monkeypatch.setattr(cli, "character_payload", violation)
    assert cli.main([*command, "--out", str(tmp_path / "x.json")]) == 3
    assert list(tmp_path.iterdir()) == []


def test_char_beyond_the_exponent_range_exits_2_before_any_work(monkeypatch, capsys):
    # the raising product carries the top component at q**(-X(n)), so -X(n)
    # and the first part of the top component must both fit under EXP_MAX;
    # the chain raises here, so a case that passes the check reaches it at once
    import qchar.characters as characters

    class ChainStarted(Exception):
        pass

    def chain(*args):
        raise ChainStarted

    def outcome(rank, n, level=1):
        characters.graded_character.cache_clear()
        try:
            cli.main(["char", "--rank", str(rank), "--level", str(level), "--n", n])
        except ChainStarted:
            return "ran"
        except SystemExit as exc:
            err = capsys.readouterr().err
            return exc.code if "beyond EXP_MAX" in err else err
        return "returned"

    monkeypatch.setattr(characters, "_chain", chain)
    # rank 1: -X(n) = n(n-1)/2, which is 33,550,336 at n = 8192
    assert [outcome(1, n) for n in ("8193", "40000000", "8192")] == [2, 2, "ran"]
    # each bound on its own, with the range cut to 4: at n = 4, -X(n) = 6;
    # one KR module at level 5 has X = 0 and top component (5)
    monkeypatch.setattr(cli, "EXP_MAX", 4)
    assert [outcome(1, "3"), outcome(1, "4"), outcome(1, "0;0;0;1", 4), outcome(1, "0;0;0;0;1", 5)] == ["ran", 2, "ran", 2]


def _usage_error(argv, capsys):
    """The stderr of ``qchar argv``, which must exit 2 with no stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "", argv
    return out.err


@pytest.mark.parametrize("spelling", ["1_0", "١", "+1"])
def test_integer_flags_take_ascii_digits_only(spelling, monkeypatch, capsys):
    # int() also reads digit separators, a plus sign and non-ASCII digits;
    # each flag takes ASCII digits with an optional "-" only, and any other
    # spelling is a usage error before any work
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_suite", never)
    monkeypatch.setattr(cli, "character_payload", never)
    for argv in (
        ["char", "--rank", "2", "--n", "%s,1" % spelling],
        ["char", "--rank", "2", "--n", "1,1;%s,0" % spelling, "--level", "2"],
        ["char", "--rank", "2", "--n", "%s*w1+w2" % spelling],
        ["char", "--rank", "2", "--n", "w%s" % spelling],
        ["char", "--rank", spelling, "--n", "1,1"],
        ["char", "--rank", "2", "--level", spelling, "--n", "1,1"],
        ["verify", "--suite", "eigen", "--rank", spelling],
        ["verify", "--suite", "eigen", "--bound", spelling],
        ["verify", "--suite", "whittaker", "--order", spelling],
    ):
        _usage_error(argv, capsys)
    # whitespace around an entry is still allowed
    assert cli.parse_n_flag(" 2 , 1 ; 0,3", 2, 2).rows == ((2, 0), (1, 3))
    assert cli.parse_n_flag("2*w1 + w2 ", 2, 1).rows == ((2,), (1,))


def test_verify_order_is_capped_before_any_work(monkeypatch, capsys):
    # the Whittaker check's cost grows as order**3, so an order past the
    # documented cap is a usage error before the run, not hours of work
    def suite(name, rank=None, bound=None, order=None):
        assert order <= cli.MAX_ORDER
        return []

    monkeypatch.setattr(cli, "run_suite", suite)
    for order in (cli.MAX_ORDER + 1, 100000000):
        err = _usage_error(["verify", "--suite", "whittaker", "--order", str(order)], capsys)
        assert "above the maximum %d" % cli.MAX_ORDER in err
    assert cli.main(["verify", "--suite", "whittaker", "--order", str(cli.MAX_ORDER)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_rank_and_bound_are_capped_before_any_work(monkeypatch, capsys):
    # every suite that reads --rank or --bound has a documented cap for it;
    # one past the cap is a usage error before the run (eigen at rank 20
    # would not reach its first point), the cap itself runs, and "all"
    # takes the least cap of its suites
    runs = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **flags: runs.append((name, flags)) or [])
    for flag, caps in cli.SUITE_CAPS.items():
        assert set(caps) == {suite for suite, flags in SUITE_FLAGS.items() if flag in flags.split()} - {"all"}
        for suite, cap in [*caps.items(), ("all", min(caps.values()))]:
            err = _usage_error(["verify", "--suite", suite, "--" + flag, str(cap + 1)], capsys)
            assert "--%s %d is above the maximum %d of --suite %s" % (flag, cap + 1, cap, suite) in err
            assert cli.main(["verify", "--suite", suite, "--" + flag, str(cap)]) == 0
            assert json.loads(capsys.readouterr().out)["passed"]
            assert runs.pop() == (suite, {"rank": None, "bound": None, "order": None, flag: cap}) and not runs
    assert "above the maximum 6 of --suite eigen" in _usage_error(["verify", "--suite", "eigen", "--rank", "20"], capsys)

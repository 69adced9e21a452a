import json
import re

import numpy as np
import pytest

from hyperlab import cli
from hyperlab.cli import COMMANDS, emit_svg_polyline, main, parse_config
from hyperlab.fourier import critical_measure_ft
from hyperlab.measures import WORK_BUDGET_BRANCHES, MeasureError
from measure_helpers import run_child


def key_cases(commands, kind, values):
    """[command, --key=value] and [command, --key, value] for every key of
    the commands whose default is of type ``kind``."""
    return [case
            for cmd in commands
            for key, default in parse_config([cmd])[1].items()
            if isinstance(default, kind)
            for val in values
            for case in ([cmd, f"--{key}={val}"],
                         [cmd, f"--{key}", str(val)])]


NONFINITE_CASES = key_cases(COMMANDS, float, ("nan", "inf", "-inf"))

# huge, tiny, subnormal and zero finite values of every float key:
# hilbert-check at a subnormal xmax once ended in a raw ZeroDivisionError
EXTREME_CASES = key_cases(COMMANDS, float,
                          ("1e300", "-1e300", "1e-300", "-1e-300", "5e-324",
                           "-5e-324", "1e-320", "0", "-0")) + [
    # the k rows' image tails at w' = pi beta k: a QUADPACK node once
    # rounded onto u = 0 there; the Ooura-Mori rule pairs them
    # (test_witness_k_rows_vanish_at_huge_beta)
    ["timelike-witness", "--beta=1e15"],
    # the top of gamma's range (1, 2]: the command's omega2 = 0 meets no
    # translate boundary, so nothing warns
    ["perturbed-residual", "--gamma=2"]]

# 10**14 of every count: each once ended in a raw MemoryError traceback or
# ran on for minutes
HUGE_INT_CASES = key_cases(COMMANDS, int, (10 ** 14,))

# runs each argv through main and prints [exit code, stdout, stderr] per
# line; an escaping exception, or a case whose Python code still runs after
# 20 s, is reported as its traceback with code null
_FUZZ_CHILD = """
import contextlib, io, json, signal, sys, traceback
from hyperlab.cli import main
class TooSlow(Exception):
    pass
def too_slow(signum, frame):
    raise TooSlow("still running after 20 s")
signal.signal(signal.SIGALRM, too_slow)
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code, err = None, io.StringIO(traceback.format_exc())
    signal.alarm(0)
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_flags_parsed(self):
        cmd, cfg, _ = parse_config(["invariant-density", "--gamma", "1.0",
                                    "--bins", "4096"])
        assert cmd == "invariant-density"
        assert cfg["gamma"] == 1.0
        assert cfg["bins"] == 4096

    def test_negative_gamma_usage_error(self, capsys):
        code, _, err = run(["coverage", "--gamma", "-1"], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["key"] == "gamma"
        assert record["schemaVersion"] == 1

    @pytest.mark.parametrize("gammas", ["1,nan", "1,inf", "nan"])
    def test_nonfinite_gammas_usage_error(self, gammas, capsys):
        code, _, err = run(["defect-sweep", "--gammas", gammas], capsys)
        assert code == 2
        assert json.loads(err)["key"] == "gammas"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--gridn", "1"],
                                       ["--gridn", "64", "--nmax", "64"]])
    def test_hardy_aliasing_usage_error(self, flags, capsys):
        # hardy-defect has no periodization grid, so gridn is an unknown key
        code, _, err = run(["hardy-defect"] + flags, capsys)
        assert code == 2
        assert json.loads(err)["command"] == "hardy-defect"
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["7", "-1", "2"])
    def test_hardy_conjugate_usage_error(self, value, capsys):
        # anything but 0 and 1 would run one family and record another value
        code, out, err = run(["hardy-defect", "--conjugate", value], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["key"] == "conjugate"

    @pytest.mark.parametrize("command", ["defect-sweep", "distorted-cross"])
    @pytest.mark.parametrize("value", ["1", "5"])
    def test_threshold_at_least_one_usage_error(self, command, value, capsys):
        # a relative threshold >= 1 would count every direction as null
        code, out, err = run([command, "--threshold", value], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["key"] == "threshold"

    def test_flag_overrides_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("gamma=1.0\nbins=64\n")
        _, cfg, _ = parse_config(["invariant-density", "--config",
                                  str(cfgfile), "--gamma", "1.5"])
        assert cfg["gamma"] == 1.5
        assert cfg["bins"] == 64

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("nonsense=3\n")
        code, _, err = run(["coverage", "--config", str(cfgfile)], capsys)
        assert code == 2
        assert json.loads(err)["key"] == "nonsense"

    @pytest.mark.parametrize("flag,value", [("--xi2", "-1e8"),
                                            ("--xi1", "-2.5e-3")])
    def test_negative_exponent_value(self, flag, value, capsys):
        # argparse took -1e8 for an option: --xi2 -1e8 once exited 2
        code, out, err = run(["ft-eval", flag, value], capsys)
        assert (code, err) == (0, "")
        assert run(["ft-eval", f"{flag}={value}"], capsys) == (0, out, "")

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(["coverage", "--bogus", "1"], capsys)
        assert code == 2
        assert json.loads(err)["key"] == "bogus"

    def test_flag_and_file_line_fail_alike(self, tmp_path, capsys):
        # one coercion reads flags and config-file lines
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("gridn=1e3\n")
        flag = run(["coverage", "--gridn=1e3"], capsys)
        assert flag[0] == 2
        assert run(["coverage", "--config", str(cfgfile)], capsys) == flag

    @pytest.mark.parametrize("argv, key", [
        (["--config", "exp.cfg", "--gamma", "0.5"], "gamma"),
        (["--gridn", "0", "--gamma", "-1"], "gridn"),
        (["--gamma", "-1", "--gridn", "0"], "gamma"),
        (["--config", "exp.cfg", "--gridn", "0"], "gridn")])
    def test_bad_value_named_where_read(self, argv, key, tmp_path, capsys,
                                        monkeypatch):
        # each value is checked as it is read, flags in order and then the
        # file (gamma=-1), and the record names the first bad one: a flag
        # that overrides a bad file value does not hide it (it once ran at
        # the flag's 0.5), as a mistyped file value is not hidden
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("gamma=-1\n")
        code, out, err = run(["coverage", *argv], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["key"] == key

    def test_config_not_utf8_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_bytes(b"gamma=\xff\n")
        code, out, err = run(["coverage", "--config", str(cfgfile)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["key"] == "config"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, command, capsys):
        code, out, err = run([command, "--help"], capsys)
        assert (code, err) == (0, "")
        for key, (_, default, _, *check) in cli._TABLE[command][2].items():
            line, = [ln for ln in out.splitlines()
                     if ln.split()[:1] == [f"--{key}"]]
            assert f"(default {default!r})" in line
            assert all(words in line for _, words in check)
        assert "--config PATH" in out and "--out PATH" in out

    def test_top_help_lists_commands(self, capsys):
        code, out, err = run(["--help"], capsys)
        assert (code, err) == (0, "")
        assert [ln.split()[0] for ln in out.splitlines()
                if ln.startswith("  ")] == list(COMMANDS)


# a parse error of each kind, with the key its record names; --gam was once
# read as --gamma, a prefix argparse matched
PARSE_ERRORS = [
    (["coverage", "--bogus", "1"], "bogus"),
    (["coverage", "extra"], "extra"),
    (["ft-eval", "--xi1"], "xi1"),
    (["ft-eval", "--bins", "1.5"], "bins"),
    (["coverage", "--gridn=1e3"], "gridn"),
    (["ft-eval", "--xi2", "-inf"], "xi2"),
    (["bogus"], "command"),
    ([], "command"),
    (["coverage", "--gam", "0.7"], "gam")]


@pytest.mark.parametrize("argv, key", PARSE_ERRORS,
                         ids=[" ".join(a) or "no command"
                              for a, _ in PARSE_ERRORS])
def test_parse_error_is_one_keyed_record(argv, key, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    record = json.loads(err)
    assert record["key"] == key
    assert record["command"] == ("" if key == "command" else argv[0])


# values just outside each kind of check in the key table (and 0 for the
# basis bins, below every count)
OUTSIDE = {cli._POSITIVE: ("0",), cli._FRACTION: ("1",), cli._COUNT: ("0",),
           cli._ULAM_BINS: ("1", str(WORK_BUDGET_BRANCHES + 1)),
           cli._BASIS_BINS: ("0", "7"), cli._FLAG: ("2",),
           cli._MEASURE: ("x",), cli._GAMMAS: ("1,0",)}
CHECKED_KEYS = [(cmd, key, value)
                for cmd in COMMANDS
                for key, (_, _, _, *checks) in cli._TABLE[cmd][2].items()
                for check in checks
                for value in OUTSIDE[check]]


@pytest.mark.parametrize("command", COMMANDS)
def test_defaults_pass_their_checks(command, tmp_path):
    # each default, written as a flag or a config-file line, is read back
    # as itself through its key's type and check
    keys = cli._TABLE[command][2]
    defaults = {key: spec[1] for key, spec in keys.items()}
    cfgfile = tmp_path / "defaults.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
    flags = [f"--{k}={v}" for k, v in defaults.items()]
    assert all(isinstance(v, spec[0]) for v, spec in zip(defaults.values(),
                                                         keys.values()))
    assert parse_config([command, *flags])[1] == defaults
    assert parse_config([command, "--config", str(cfgfile)])[1] == defaults


@pytest.mark.parametrize("command, key, value", CHECKED_KEYS,
                         ids=[f"{c} {k}={v}" for c, k, v in CHECKED_KEYS])
def test_value_outside_check_is_keyed_record(command, key, value, tmp_path,
                                             capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"{key}={value}\n")
    for argv in ([command, f"--{key}", value],
                 [command, "--config", str(cfgfile)]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err)["key"] == key
        assert json.loads(err)["command"] == command


# an output path that cannot be written, from a flag or a config-file line
# (an empty out opens ""): each once ended in a raw FileNotFoundError
# traceback
WRITE_ERRORS = [["coverage", "--iterates", "3", "--gridn", "100", "--out",
                 "missing/x.csv"],
                ["sici-spiral", "--n", "40", "--svg", "missing/x.svg"],
                ["coverage", "--iterates", "3", "--gridn", "100", "--config",
                 "out.cfg"]]


@pytest.mark.parametrize("argv", WRITE_ERRORS, ids=[a[-1] for a in
                                                    WRITE_ERRORS])
def test_write_error_is_one_runtime_record(argv, tmp_path, capsys):
    (tmp_path / "out.cfg").write_text("out =\n", encoding="utf-8")
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    record = json.loads(err)
    assert (record["command"], record["key"]) == (argv[0], "")
    assert "[Errno" in record["message"]


class TestRunExperiment:
    def test_annihilator_check_json(self, capsys):
        code, out, _ = run(["annihilator-check", "--gamma", "1",
                            "--gridn", "2000"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["schemaVersion"] == 1
        assert record["periodizedResidualSum1"] <= 1e-8
        assert record["periodizedResidualSum2"] <= 1e-8

    def test_csv_embeds_resolved_config(self, capsys):
        code, out, _ = run(["coverage", "--gamma", "0.5", "--iterates", "3",
                            "--gridn", "100"], capsys)
        assert code == 0
        head = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert "# command = coverage" in head
        assert "# gamma = 0.5" in head
        assert "# gridn = 100" in head

    @pytest.mark.parametrize("argv", [
        ["invariant-density", "--gamma", "0.8"],
        ["ft-cross", "--measure", "expanded", "--gamma", "0.8"],
        ["perturbed-residual", "--gamma", "0.5"]])
    def test_gamma_below_one_runtime_record(self, argv, capsys):
        # U_gamma has a family of invariant densities for gamma < 1; the
        # refusal comes before any Ulam matrix is built
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["command"] == argv[0]
        assert "involution" in record["message"]

    @pytest.mark.parametrize("conjugate", ["0", "1"])
    def test_hardy_defect_reports_achieved_error(self, conjugate, capsys):
        code, out, _ = run(["hardy-defect", "--nmax", "8", "--conjugate",
                            conjugate], capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["errEstimate"] <= 1e-6

    @pytest.mark.parametrize("flags", [[], ["--xi2", "1000"]])
    def test_ft_eval_reports_achieved_error(self, flags, capsys):
        # the estimate ft_point's quadrature achieved, next to the value
        code, out, _ = run(["ft-eval", *flags], capsys)
        assert code == 0
        err = json.loads(out)["absErrEstimate"]
        assert isinstance(err, float) and np.isfinite(err) and err >= 0.0

    def test_witness_over_budget_runtime_record(self, capsys):
        # at Im z0 = 1e-8 the j pairings miss their budgets: j = 1 first,
        # by 18 times, and j = 7 reads |value| 5.77, where the exact value
        # is 0, with an estimate about 2e6 times its budget
        code, out, err = run(["timelike-witness", "--im", "1e-8"], capsys)
        assert code == 1
        assert out == ""
        record = json.loads(err.splitlines()[-1])
        assert record["command"] == "timelike-witness"
        assert "above tolerance" in record["message"]

    @pytest.mark.parametrize("beta", ["100", "1000"])
    def test_witness_k_rows_vanish_at_large_beta(self, beta, capsys):
        # each k row's piece pairs as its image under t -> 1/t, whose tail
        # the Ooura-Mori rule takes at w' = pi beta k: beta = 100 once
        # missed its budget at k = 3 (estimate 4.2e-8), and beta = 1000 at
        # k = 1 (0.19)
        code, out, _ = run(["timelike-witness", "--beta", beta], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln.startswith("k,")]
        assert len(rows) == 11
        assert max(float(r[4]) for r in rows) <= 1e-11

    @pytest.mark.parametrize("beta", ["1e15", "1e300"])
    def test_witness_k_rows_vanish_at_huge_beta(self, beta, capsys):
        # each k row's image tail starts at u = 1/(pi beta k): at beta =
        # 1e15 a QUADPACK rule's first node once rounded onto u = 0 and the
        # run ended in a record ("reads nan"), where the Ooura-Mori rule
        # samples u > 0 only; at 1e300 the part below that start, all
        # under the t chart's floor 1e-300, was refused as a reversed
        # interval
        code, out, _ = run(["timelike-witness", "--beta", beta], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln.startswith("k,")]
        assert len(rows) == 11
        assert max(float(r[4]) for r in rows) <= 1e-11

    @pytest.mark.parametrize("im", ["1e-5", "1e-8"])
    def test_witness_small_im_writes_only_the_record(self, im):
        # a fresh process with warnings shown: the QUADPACK warnings of the
        # failing pairings are carried in the record's message, and
        # nothing else reaches stderr
        res = run_child("-W", "default", "-m", "hyperlab.cli",
                        "timelike-witness", "--im", im, timeout=120)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        record = json.loads(res.stderr)
        assert record["command"] == "timelike-witness"
        assert "QUADPACK warned: " in record["message"]

    def test_witness_small_im_record_pinned(self, capsys):
        # in-process, the record names the first row over its budget and
        # ends with the first sentence of each distinct message QUADPACK
        # returned for the block's runs, with its count, in order of first
        # appearance
        code, out, err = run(["timelike-witness", "--im", "1e-5"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "schemaVersion": 1, "command": "timelike-witness", "key": "",
            "message": "witness pairing j = 0 achieved error estimate "
            "2.93e-08 above tolerance; QUADPACK warned: The algorithm does "
            "not converge. (x2); The integral is probably divergent, or "
            "slowly convergent. (x4); The occurrence of roundoff error is "
            "detected, which prevents the requested tolerance from being "
            "achieved. (x1)"}

    def test_witness_nonzero_row_runtime_record(self):
        # at Im z0 = 1e-5 the mass row j = 0 misses its budget (estimate
        # 2.93e-8); before the half-lines folded, every estimate was
        # within budget and rows read |value| up to about pi.  A fresh
        # process exits 1 with a JSON record, not an artifact
        res = run_child("-m", "hyperlab.cli", "timelike-witness", "--im",
                        "1e-5", timeout=120)
        assert res.returncode == 1
        assert res.stdout == ""
        record = json.loads(res.stderr.splitlines()[-1])
        assert record["command"] == "timelike-witness"
        assert record["message"].startswith("witness pairing j = 0 ")

    def test_defect_sweep_defaults_pinned(self, capsys):
        # the sweep with its four fast-side end columns (E_2 and 2 E_3 at
        # w t_max and -c / t_min) evaluated in arbitrary precision and
        # everything else as in the library gave these tails
        want = {
            0.6: (0, [1.0964920705049628, 1.4666082645169154,
                      3.2788225341115202, 4.315502898712001,
                      4.97998038188023, 5.60129874397633]),
            0.8: (0, [1.0181787596819951, 1.1722058883267021,
                      2.3456016951138627, 3.3738461324081856,
                      3.916867224275929, 4.3117071046035615]),
            1.0: (1, [0.030898885817683363, 1.0125036074105438,
                      1.1655537057423817, 2.9301070044348707,
                      3.162525558979067, 3.7461317691738505]),
            1.2: (2, [0.13091973993636358, 0.23997819591769043,
                      0.3307646499040184, 0.4935191582391698,
                      1.2894164424319736, 3.2736989275892032]),
            1.5: (3, [0.05943549814483138, 0.14231521695604243,
                      0.22536629286040588, 0.26579986468433736,
                      0.36689374666763735, 0.38202930862707596])}
        code, out, _ = run(["defect-sweep"], capsys)
        assert code == 0
        table = [ln.split(",") for ln in out.splitlines()
                 if ln[:1].isdigit()]
        assert [float(r[0]) for r in table] == list(want)
        for r in table:
            defect, tail = want[float(r[0])]
            assert int(r[1]) == defect
            assert np.max(np.abs(np.array(r[2:], dtype=float) - tail)) \
                <= 1e-12
        # past the band's resolved window (gamma >~ 1.6) the counts are
        # not evidence, but they are pinned: 4, 7 and 8
        code, out, _ = run(["defect-sweep", "--gammas", "2,3,5"], capsys)
        assert code == 0
        assert [(float(r[0]), int(r[1])) for r in (
            ln.split(",") for ln in out.splitlines() if ln[:1].isdigit())] \
            == [(2.0, 4), (3.0, 7), (5.0, 8)]

    @pytest.mark.parametrize("gammas, code", [
        ("1e300,1", 0), ("1e-300", 0), ("1e308", 1)])
    def test_defect_sweep_extreme_gamma_is_quiet(self, gammas, code):
        # a fresh process with warnings shown: the near-end column's iy**2
        # overflowed at gamma = 1e300 and underflowed into 0/0 at 1e-300,
        # and at 1e308 beta = 2 gamma overflowed, and numpy's warnings
        # reached stderr; a gamma whose rows' phase is not finite is one
        # runtime record
        res = run_child("-W", "default", "-m", "hyperlab.cli",
                        "defect-sweep", "--gammas", gammas, timeout=120)
        assert res.returncode == code
        if code == 0:
            assert res.stderr == ""
            return
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["command"] == "defect-sweep"

    def test_annihilator_check_odd_grid(self, capsys):
        # at gridn = 10001 the midpoint t = 0.5 meets t + 1 = gamma, the
        # left end of the image piece [gamma, inf), whose bins were
        # (s/e_{k+1}, s/e_k]: it read 0 there, and both sums read 0.684
        # (1.53e-4 at gridn = 10000); criterion 5's bound is 5e-3
        code, out, _ = run(["annihilator-check", "--gamma", "1.5",
                            "--gridn", "10001"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["periodizedResidualSum1"] <= 5e-3
        assert rec["periodizedResidualSum2"] <= 5e-3

    def test_ft_eval_tiny_xi1_is_quiet(self):
        # in a child process with warnings shown, so that a raw
        # IntegrationWarning would reach its stderr
        res = run_child("-W", "default", "-m", "hyperlab.cli", "ft-eval",
                        "--xi1", "1e-7", timeout=120)
        assert res.returncode == 0
        assert res.stderr == ""

    def test_ft_eval_axis2_away_from_origin_is_quiet(self):
        # a w = 0 row meets the c/t phase near t = 1 in the family chart of
        # the [1, inf) piece, under QAWO; in a child process with warnings
        # shown, as above
        res = run_child("-W", "default", "-m", "hyperlab.cli", "ft-eval",
                        "--xi2", "1000", timeout=120)
        assert res.returncode == 0
        assert res.stderr == ""
        rec = json.loads(res.stdout)
        assert abs(complex(rec["re"], rec["im"])) <= 1e-11

    @pytest.mark.parametrize("argv, code", [
        (["--xi2", "1e307"], 1),
        (["--measure", "expanded", "--gamma", "1.5", "--xi2", "1e306"], 0)])
    def test_ft_eval_huge_xi2_is_quiet(self, argv, code):
        # in a child process with warnings shown: m^2 xi2 overflowed at
        # 1e307, and E_2 of -inf read NaN at 1e306, and numpy's warnings
        # reached stderr; the critical measure's QUADPACK run still reads
        # NaN at 1e307, which is one runtime record
        res = run_child("-W", "default", "-m", "hyperlab.cli", "ft-eval",
                        *argv, timeout=120)
        assert res.returncode == code
        if code == 0:
            assert res.stderr == ""
            return
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert json.loads(res.stderr)["command"] == "ft-eval"

    def test_ft_cross_wide_critical_cross(self, capsys):
        # every pairing of the critical measure on the cross vanishes
        code, out, _ = run(["ft-cross", "--jmax", "500", "--kmax", "500"],
                           capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln[:2] in ("1,", "2,")]
        assert len(rows) == 2002
        assert max(abs(complex(float(r[4]), float(r[5]))) for r in rows) \
            <= 1e-8

    def test_ft_cross_tiny_alpha_axis1_rows(self, capsys):
        # ft(alpha j, 0) of the critical measure is about 0 at a tiny alpha
        code, out, _ = run(["ft-cross", "--alpha", "1e-300"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln.startswith("1,")]
        assert len(rows) == 11
        for r in rows:
            want = critical_measure_ft(float(r[2]) / 2.0)
            assert abs(complex(float(r[4]), float(r[5])) - want) <= 1e-10

    def test_ft_cross_tiny_alpha_origin_rows(self, capsys):
        # the origin rows pair to the total mass 0: the mass entries take
        # one plain quad, not the 16^i cuts up to 1/|w| of axis 1
        code, out, _ = run(["ft-cross", "--alpha", "1e-300"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln.startswith(("1,0,", "2,0,"))]
        assert len(rows) == 2
        for r in rows:
            assert float(r[4]) == 0.0 and float(r[5]) == 0.0
            assert float(r[6]) < 1e-12

    @pytest.mark.parametrize("reach,want", [(51, 1), (52, 0)])
    def test_defect_sweep_row_count_boundary(self, reach, want, capsys):
        # the full system has (2 jmax + 1) + (2 kmax + 1) rows: 206 < 207
        # elements at jmax = kmax = 51 (gamma != 1 adds an anchor)
        code, out, err = run(["defect-sweep", "--jmax", str(reach),
                              "--kmax", str(reach)], capsys)
        assert code == want
        if want:
            assert out == ""
            assert "underdetermined" in json.loads(err)["message"]

    def test_determinism(self, tmp_path):
        args = ["sici-spiral", "--n", "40"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_runtime_error_record(self, capsys):
        # xi2 shift is rejected by the distorted-cross model
        code, _, err = run(["distorted-cross", "--xi1", "1.0",
                            "--xi2", "0.5"], capsys)
        assert code == 1
        record = json.loads(err)
        assert record["command"] == "distorted-cross"
        assert record["message"]

    def test_overflow_runtime_record(self, capsys, monkeypatch):
        # a complex power in a QUADPACK callback overflows past t ~ 1e154
        def overflow(cfg, out):
            raise OverflowError("(34, 'Numerical result out of range')")

        _, help_, keys = cli._TABLE["ft-eval"]
        monkeypatch.setitem(cli._TABLE, "ft-eval", (overflow, help_, keys))
        code, out, err = run(["ft-eval"], capsys)
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["command"] == "ft-eval"
        assert "out of range" in record["message"]


# imports hyperlab.cli, runs main on the argv given (if any) with stdout
# discarded, and prints the exit code and the scipy modules then loaded
_IMPORTS_CHILD = """
import contextlib, io, json, sys
from hyperlab.cli import main
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
"""


class TestImportHygiene:
    """Each command loads only the scipy its layer calls."""

    @pytest.mark.parametrize("argv, unloaded", [
        ([], ("scipy",)),
        (["coverage"], ("scipy",)),
        (["defect-sweep", "--gammas", "1.0", "--bins", "20", "--jmax", "40",
          "--kmax", "40"], ("scipy.integrate", "scipy.sparse")),
        (["distorted-cross"], ("scipy.integrate", "scipy.sparse")),
        (["invariant-density", "--bins", "256"],
         ("scipy.integrate", "scipy.special")),
        (["sici-spiral"], ("scipy.integrate", "scipy.sparse")),
        (["annihilator-check"], ("scipy.integrate",)),
        (["perturbed-residual"], ("scipy.integrate",))],
        ids=["import", "coverage", "defect-sweep", "distorted-cross",
             "invariant-density", "sici-spiral", "annihilator-check",
             "perturbed-residual"])
    def test_command_leaves_scipy_unloaded(self, argv, unloaded):
        res = run_child("-c", _IMPORTS_CHILD, *argv, timeout=120)
        code, loaded = json.loads(res.stdout)
        assert code == 0
        assert [m for m in loaded for p in unloaded
                if m == p or m.startswith(p + ".")] == []


class TestSvgPolyline:
    def test_two_points(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_svg_polyline([(0.0, 0.0), (1.0, 1.0)], "segment", str(path))
        text = path.read_text()
        assert text.startswith("<?xml")
        assert 'version="1.1"' in text
        assert "<path" in text

    def test_byte_stable(self, tmp_path):
        pts = [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_polyline(pts, "t", str(p1))
        emit_svg_polyline(pts, "t", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_input_no_file(self, tmp_path):
        path = tmp_path / "nope.svg"
        with pytest.raises(MeasureError):
            emit_svg_polyline([], "empty", str(path))
        assert not path.exists()

    def test_single_point_rejected(self, tmp_path):
        with pytest.raises(MeasureError):
            emit_svg_polyline([(1.0, 2.0)], "one", str(tmp_path / "x.svg"))

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(MeasureError):
            emit_svg_polyline([(0.0, 0.0), (float("nan"), 1.0)], "bad",
                              str(tmp_path / "x.svg"))


def run_in_child(cases):
    """One child process runs every case (a crash there, not here, is what
    QUADPACK's oscillatory rules do with a non-finite frequency); returns
    the per-case results it printed and its exit status."""
    res = run_child("-c", _FUZZ_CHILD, input=json.dumps(cases), timeout=600)
    return [json.loads(ln) for ln in res.stdout.splitlines()], res.returncode


@pytest.fixture(scope="module")
def nonfinite_results():
    return run_in_child(NONFINITE_CASES)


@pytest.fixture(scope="module")
def extreme_results():
    return run_in_child(EXTREME_CASES)


@pytest.fixture(scope="module")
def huge_int_results():
    return run_in_child(HUGE_INT_CASES)


@pytest.mark.parametrize("case", range(len(NONFINITE_CASES)),
                         ids=[" ".join(c) for c in NONFINITE_CASES])
def test_nonfinite_float_usage_error(case, nonfinite_results):
    results, status = nonfinite_results
    assert case < len(results), f"child process died (status {status})"
    code, _, err = results[case]
    assert "Traceback" not in err
    assert code == 2
    key = NONFINITE_CASES[case][1][2:].partition("=")[0]
    assert json.loads(err)["key"] == key


@pytest.mark.parametrize("case", range(len(EXTREME_CASES)),
                         ids=[" ".join(c) for c in EXTREME_CASES])
def test_extreme_float_artifact_or_record(case, extreme_results):
    # either a finite artifact and an empty stderr, or a JSON error record
    # with the documented exit code and nothing else on stderr, never a
    # traceback: NaN passed the error budget once, and ft-eval wrote it as
    # a bare NaN, which is not JSON; distorted-cross at |xi1| past 1.3e154
    # once wrote numpy's overflow warning
    results, status = extreme_results
    assert case < len(results), f"child process died (status {status})"
    code, out, err = results[case]
    assert "Traceback" not in err
    if code == 0:
        assert out
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out)
        assert err == ""
        return
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["command"] == EXTREME_CASES[case][0]


@pytest.mark.parametrize("case", range(len(HUGE_INT_CASES)),
                         ids=[" ".join(c) for c in HUGE_INT_CASES])
def test_huge_integer_refused_with_record(case, huge_int_results):
    # refused before the work starts: a usage error, a budget's runtime
    # record or the record of a failed allocation, never a traceback
    results, status = huge_int_results
    assert case < len(results), f"child process died (status {status})"
    code, out, err = results[case]
    assert "Traceback" not in err
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["command"] == HUGE_INT_CASES[case][0]


class TestHardyTestMeasure:
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_density_reads_zero_far_out(self, conjugate):
        # 1/(t +- i)^2 as a complex power raised OverflowError past |t| ~
        # 1e154; as a product it reads 0 there
        f = cli._hardy_test_measure(conjugate)
        for t in (1e200, -1e200, 1e300, -1e300):
            assert f.pieces[int(t > 0)].density(t) == 0.0

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_density_is_the_power_below_overflow(self, conjugate):
        sign = -1.0 if conjugate else 1.0
        f = cli._hardy_test_measure(conjugate)
        for t in np.geomspace(1e-300, 1e153, 61).tolist():
            for x in (t, -t):
                got = f.pieces[int(x > 0)].density(x)
                want = 1.0 / (x + sign * 1j) ** 2
                assert (got.real, got.imag) == (want.real, want.imag)

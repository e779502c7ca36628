"""CLI behavior: output formats, exit codes, file inputs."""

import contextlib
import io
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from haar import cli
from haar.cli import (
    format_certified, format_dyadic_exact_decimal, main, parse_ball,
    parse_group,
)
from haar.exactreal import CertifiedValue, ConfigError, Dyadic
from haar.functions import builtin_integrand, builtin_names, values_integrand
from haar.generic import ModulusOfContinuity, compute_integral
from haar.groups import make_group
from haar.packing import PackingTable
from conftest import FIXTURE_TABLES, haar_errors
from region_oracle import RegionOracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_printed(line):
    v, e = line.strip().split(" +- ")
    return Fraction(v), Fraction(e)


class TestFormatting:
    def test_printed_interval_contains_certified(self):
        for m, e, n in ((5, -4, 3), (-7, -5, 6), (1, 0, 10), (12345, -13, 12)):
            cv = CertifiedValue(Dyadic(m, e), -n)
            v, err = parse_printed(format_certified(cv))
            true = cv.value.as_fraction()
            assert v - err <= true - Fraction(1, 1 << n)
            assert true + Fraction(1, 1 << n) <= v + err

    def test_digit_count(self):
        cv = CertifiedValue(Dyadic(1, -1), -6)
        digits = math.ceil(6 * math.log10(2)) + 1
        val = format_certified(cv).split(" +- ")[0]
        assert len(val.split(".")[1]) == digits

    def test_exact_decimal(self):
        assert format_dyadic_exact_decimal(Dyadic(3, -2)) == "0.75"
        assert format_dyadic_exact_decimal(Dyadic(-5, -3)) == "-0.625"
        assert format_dyadic_exact_decimal(Dyadic(7, 0)) == "7"


class TestIntegrate:
    def test_circle_one(self, capsys):
        code, out, err = run(capsys, "integrate", "--group", "circle",
                             "--method", "generic", "--function", "builtin:one",
                             "--precision", "4")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - 1) <= e

    def test_su2_abs_sum_quadrature(self, capsys):
        code, out, err = run(capsys, "integrate", "--group", "su2",
                             "--function", "builtin:abs-sum", "--precision", "5")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - Fraction("1.6976527")) <= Fraction(1, 16)

    def test_finite_values_file(self, capsys, tmp_path):
        cay = tmp_path / "z5.txt"
        cay.write_text("5\n" + "\n".join(
            " ".join(str((i + j) % 5) for j in range(5)) for i in range(5)))
        fv = tmp_path / "f.txt"
        fv.write_text("1 2 3 4 10\n")
        code, out, err = run(capsys, "integrate", "--group", "finite",
                             "--cayley", str(cay), "--function",
                             f"values:{fv}", "--precision", "8")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - 4) <= Fraction(1, 256)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_torus_generic_one(self, capsys, k):
        # the partition radius is pinned to about n + 22 bits, so the radius
        # search counts torus packings far past any materializable level
        code, out, err = run(capsys, "integrate", "--group", "torus:2",
                             "--method", "generic", "--function",
                             "builtin:one", "-n", str(k))
        assert code == 0 and err == ""
        v, e = parse_printed(out)
        assert abs(v - 1) <= min(e, Fraction(1, 1 << k))

    @pytest.mark.parametrize("group", ["cyclic:5", "s3"])
    def test_finite_generic_route_matches_the_discrete_modulus(self, group):
        # the command line reads every group's modulus off the spec's
        # Lipschitz constant; on a finite group every packing at level >= 1
        # is the whole group, so this gives the discrete modulus' bits
        G = (parse_group(group, None) if group != "s3"
             else make_group("finite", table=FIXTURE_TABLES["s3"]()))
        rng = random.Random(26)
        specs = [builtin_integrand("one", "finite"),
                 values_integrand([rng.randint(-9, 9) for _ in range(G.order)])]
        for n in range(1, 11):
            for spec in specs:
                got = cli._integrate_value(G, "generic", spec, n, None)
                want = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                                        spec.bound, PackingTable(G), n)
                assert (got.value, got.error_exponent) == \
                    (want.value, want.error_exponent), (spec.name, n)

    def test_unknown_function_is_config_error(self, capsys):
        code, out, err = run(capsys, "integrate", "--group", "circle",
                             "--function", "builtin:nope", "--precision", "3")
        assert code == 1 and "nope" in err

    def test_effort_cap_gives_exit_2(self, capsys):
        code, out, err = run(capsys, "integrate", "--group", "su2",
                             "--function", "builtin:abs-sum",
                             "--precision", "8", "--effort-cap", "1000")
        assert code == 2
        assert "NoConvergence" in err


class TestMeasure:
    def test_effort_cap_below_the_first_level_names_the_cap(self, capsys):
        # at precision 10 the measure loop starts at packing level 6
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--set", "ball(0,1/4)", "--precision", "10",
                             "--effort-cap", "3")
        assert code == 2 and out == ""
        assert err.startswith("NoConvergence: ")
        assert "packing level 3" in err and "the first is 6" in err
        assert "co-inner" not in err

    def test_effort_cap_names_the_levels_tried(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--set", "ball(0,1/4)", "--precision", "10",
                             "--effort-cap", "7")
        assert code == 2 and out == ""
        assert err.startswith("NoConvergence: ") and "levels 6..7" in err

    def test_circle_arc(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--set", "ball(0,1/8)", "--precision", "4")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - Fraction(1, 4)) <= Fraction(1, 16)

    def test_torus_ball(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "torus:2",
                             "--set", "ball(1/2:0,1/8)", "-n", "6")
        assert code == 0 and err == ""
        v, e = parse_printed(out)
        assert abs(v - Fraction(1, 16)) <= min(e, Fraction(1, 64))

    def test_finite_identity_ball(self, capsys, tmp_path):
        cay = tmp_path / "z5.txt"
        cay.write_text("5\n" + "\n".join(
            " ".join(str((i + j) % 5) for j in range(5)) for i in range(5)))
        code, out, err = run(capsys, "measure", "--group", "finite",
                             "--cayley", str(cay), "--set", "ball(e,1/2)",
                             "--precision", "4")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - Fraction(1, 5)) <= Fraction(1, 16)

    def test_near_full_arc(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--set", "ball(0,31/64)", "--precision", "2")
        assert code == 0
        v, e = parse_printed(out)
        assert abs(v - Fraction(31, 32)) <= Fraction(1, 4)

    def test_quadrature_method_rejected(self, capsys):
        # measure has no --method: the generic route is its only one
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--method", "quadrature",
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1
        assert out == "" and err.startswith("ConfigError: ") and "--method" in err

    def test_su2_rejected(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "su2",
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1
        assert out == "" and err.startswith("KappaUnavailable: ")

    @pytest.mark.parametrize("group", ["torus:0", "torus:-2"])
    def test_torus_below_dimension_one_rejected(self, capsys, group):
        # torus:0 used to measure as the circle, torus:-2 crashed on a float kappa
        code, out, err = run(capsys, "measure", "--group", group,
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1
        assert out == "" and err.startswith("ConfigError: ") and group[6:] in err


class TestPacking:
    def test_circle_entry(self, capsys):
        code, out, err = run(capsys, "packing", "--group", "circle",
                             "--precision", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "3 7" and len(lines) == 8

    def test_circle_n1(self, capsys):
        code, out, err = run(capsys, "packing", "--group", "circle",
                             "--precision", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1 1" and len(lines) == 2

    def test_cyclic6(self, capsys):
        code, out, err = run(capsys, "packing", "--group", "cyclic:6",
                             "--precision", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1 6" and len(lines) == 7

    def test_su2_unavailable(self, capsys):
        code, out, err = run(capsys, "packing", "--group", "su2",
                             "--precision", "2")
        assert code == 1 and out == ""
        assert err.startswith("KappaUnavailable: ")
        assert "only finite, circle and torus groups" in err

    @pytest.mark.parametrize("group, level, size", [
        ("circle", 40, (1 << 40) - 1), ("torus:2", 11, ((1 << 11) - 1) ** 2),
    ])
    def test_level_past_the_iteration_cap_is_refused(self, capsys, group,
                                                     level, size):
        # the entry is refused before any point is built
        code, out, err = run(capsys, "packing", "--group", group,
                             "--precision", str(level))
        assert code == 2 and out == ""
        assert err.startswith("NoConvergence: ")
        assert f"level {level} has {size} points" in err


class TestBench:
    def test_csv_shape_and_positive_times(self, capsys):
        code, out, err = run(capsys, "bench", "--group", "su2",
                             "--function", "builtin:abs-sum",
                             "--n-min", "3", "--n-max", "4", "--repeats", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == \
            "precision,seconds_mean,seconds_min,seconds_max,value,error_exponent"
        assert len(lines) == 3
        vals = []
        for ln in lines[1:]:
            n, mean, tmin, tmax, val, ee = ln.split(",")
            assert float(mean) > 0 and float(tmin) <= float(mean) <= float(tmax)
            vals.append((int(n), Fraction(val), int(ee)))
        # certified values across rows enclose the same real
        (n1, v1, e1), (n2, v2, e2) = vals
        assert abs(v1 - v2) <= Fraction(1, 1 << n1) + Fraction(1, 1 << n2)

    def test_single_repeat_min_equals_max(self, capsys):
        code, out, err = run(capsys, "bench", "--group", "circle",
                             "--function", "builtin:re2",
                             "--n-min", "4", "--n-max", "4", "--repeats", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == row[2] == row[3]

    def test_bad_range_exits_1(self, capsys):
        code, out, err = run(capsys, "bench", "--group", "su2",
                             "--function", "builtin:abs-sum",
                             "--n-min", "5", "--n-max", "4")
        assert code == 1
        assert "precision," not in out


HAAR_ERRORS = haar_errors()
# every HaarError exits with its own code; untyped input errors exit 1
EXIT_CASES = [(cls, cls.exit_code) for cls in HAAR_ERRORS] + \
    [(FileNotFoundError, 1), (ValueError, 1)]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", EXIT_CASES, ids=[
        f"{error.__name__}-{code}" for error, code in EXIT_CASES])
    def test_error_class_exit_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_packing", fail)
        got, out, err = run(capsys, "packing", "--group", "circle")
        assert got == code
        assert out == "" and err == f"{error.__name__}: boom\n"

    def test_exit_1_is_exactly_the_config_errors(self):
        assert cli.ConfigError is ConfigError
        assert {cls.__name__ for cls in HAAR_ERRORS if cls.exit_code == 1} == {
            cls.__name__ for cls in HAAR_ERRORS if issubclass(cls, ConfigError)}
        assert {cls.exit_code for cls in HAAR_ERRORS} == {1, 2}

    @pytest.mark.parametrize("argv", [
        ("integrate", "--group", "su2", "--function", "builtin:abs-sum"),
        ("integrate", "--group", "circle", "--function", "builtin:re2"),
        ("integrate", "--group", "circle", "--method", "generic"),
        ("measure", "--group", "circle", "--set", "ball(0,1/8)"),
    ])
    def test_negative_effort_cap_is_config_error(self, capsys, argv):
        got, out, err = run(capsys, *argv, "--precision", "3",
                            "--effort-cap", "-1")
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ")

    @pytest.mark.parametrize("argv, option", [
        (("integrate", "--group", "circle", "--function", "builtin:re2",
          "-n", "-3"), "--precision"),
        (("integrate", "--group", "circle", "--method", "generic",
          "--precision", "-1"), "--precision"),
        (("measure", "--group", "circle", "--set", "ball(0,1/8)", "-n", "-2"),
         "--precision"),
        (("bench", "--group", "circle", "--function", "builtin:re2",
          "--n-min", "-1", "--n-max", "2", "--repeats", "1"), "--n-min"),
    ])
    def test_negative_precision_is_config_error(self, capsys, argv, option):
        got, out, err = run(capsys, *argv)
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ") and option in err

    @pytest.mark.parametrize("argv", [
        ("measure", "--group", "circle", "--set", "ball(0,1/0)"),
        ("measure", "--group", "circle", "--set", "ball(1/0,1/8)"),
        ("measure", "--group", "torus:2", "--set", "ball(0:1/0,1/8)"),
        ("integrate", "--group", "cyclic:2", "--function", "values:{}"),
    ])
    def test_zero_denominator_is_config_error(self, capsys, tmp_path, argv):
        # each used to end in an uncaught ZeroDivisionError traceback
        values = tmp_path / "values.txt"
        values.write_text("1 1/0\n")
        got, out, err = run(capsys, *(a.format(values) for a in argv), "-n", "4")
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ") and "'1/0'" in err

    def test_packing_at_precision_minus_one_is_the_identity(self, capsys):
        got, out, err = run(capsys, "packing", "--group", "circle", "-n", "-1")
        assert got == 0 and err == ""

    def test_circle_quadrature_honours_effort_cap(self, capsys):
        got, out, err = run(capsys, "integrate", "--group", "circle",
                            "--function", "builtin:re2", "-n", "12",
                            "--effort-cap", "1")
        assert got == 2
        assert out == "" and err.startswith("NoConvergence: ")


class TestRefusals:
    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "integrate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        (("integrate", "--group", "circle", "--precision", "abc"), "'abc'"),
        (("integrate",), "--group"),
        (("integrate", "--group", "circle", "--bogus", "1"), "--bogus"),
        ((), "command"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv, named):
        # argparse's own usage errors used to exit 2, the code of a
        # computation that gave up
        got, out, err = run(capsys, *argv)
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ") and named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, named", [
        (("measure", "--group", "torus:x", "--set", "ball(0,1/8)"), "'x'"),
        (("integrate", "--group", "cyclic:x"), "'x'"),
        (("measure", "--group", "cyclic:3", "--set", "ball(x,1/8)"), "'x'"),
        (("integrate", "--group", "cyclic:0"), "not 0"),
    ])
    def test_bad_tokens_are_named(self, capsys, argv, named):
        # each used to print Python's own ValueError text
        got, out, err = run(capsys, *argv)
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ") and named in err

    @pytest.mark.parametrize("argv", [
        ("packing", "--group", "circle", "--method", "generic"),
        ("packing", "--group", "circle", "--effort-cap", "3"),
        ("measure", "--group", "circle", "--set", "ball(0,1/8)",
         "--method", "generic"),
        ("bench", "--group", "circle", "--precision", "3"),
    ])
    def test_unread_options_are_refused(self, capsys, argv):
        got, out, err = run(capsys, *argv)
        assert got == 1
        assert out == "" and err.startswith("ConfigError: unrecognized")

    @pytest.mark.parametrize("argv", [
        ("integrate", "--group", "su2", "--method", "generic"),
        ("packing", "--group", "so3"),
    ])
    def test_missing_packings_exit_1_everywhere(self, capsys, argv):
        # as measure does (TestMeasure.test_su2_rejected)
        got, out, err = run(capsys, *argv, "-n", "2")
        assert got == 1
        assert out == "" and err.startswith("KappaUnavailable: ")

    def test_quadrature_on_a_torus_is_config_error(self, capsys):
        got, out, err = run(capsys, "integrate", "--group", "torus:2",
                            "--method", "quadrature")
        assert got == 1
        assert out == "" and err.startswith("ConfigError: ") and "torus" in err


# malformed tokens, each read before any computation starts
BAD_INTS = ["x", "1.5", "", "1/0", "0x10"]
BAD_TOKENS = {
    "group": [f"{kind}:{tok}" for kind in ("torus", "cyclic")
              for tok in BAD_INTS + ["0", "-1"]],
    "--precision": BAD_INTS,
    "--effort-cap": BAD_INTS + ["-1", "-8"],
    "--function": ["builtin:nope", "builtin:", "builtin:ONE", "sin(x)"],
    "--set": [f"ball({c},1/8)" for c in ("1/3", "x", "1/0", "0.3")]
             + [f"ball(0,{r})" for r in ("1/0", "x", "")],
}
BASE_ARGV = {
    "integrate": ["--function", "builtin:one", "-n", "3"],
    "measure": ["--set", "ball(0,1/8)", "-n", "3"],
    "packing": ["-n", "3"],
    "bench": ["--function", "builtin:one", "--n-min", "2", "--n-max", "3",
              "--repeats", "1"],
}
ERRORS_BY_NAME = {cls.__name__: cls for cls in HAAR_ERRORS}


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    group = draw(st.sampled_from(["circle", "torus:2", "cyclic:3", "su2",
                                  "so3"]))
    method = draw(st.sampled_from([None, "generic", "quadrature"]))
    slot = draw(st.sampled_from(sorted(BAD_TOKENS)))
    token = draw(st.sampled_from(BAD_TOKENS[slot]))
    if slot == "group":
        group = token
    argv = [command, "--group", group, *BASE_ARGV[command]]
    if method is not None:
        argv += ["--method", method]
    if slot != "group":
        argv += [slot, token]
    return argv


class TestRefusalFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=malformed_argv())
    def test_malformed_input_is_one_named_refusal(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(argv)
        err = err.getvalue()
        name, _, message = err.partition(": ")
        assert out.getvalue() == "" and err.count("\n") == 1, (argv, err)
        assert name in ERRORS_BY_NAME and message.strip(), (argv, err)
        assert got == ERRORS_BY_NAME[name].exit_code, (argv, err)


def _lift(values):
    return {f"lift:{name}": Fraction(2, 3) * v for name, v in values.items()}


def _mp_fraction(x) -> Fraction:
    """The exact value of an mpmath number at the working precision."""
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


with mpmath.workdps(40):
    _PI = _mp_fraction(mpmath.pi)
_CIRCLE_TRUE = {"one": Fraction(1), "re": Fraction(0), "re2": Fraction(1, 2),
                "im": Fraction(0), "abs-re": 2 / _PI}
# group kind -> builtin -> its Haar integral
CLOSED_FORMS = {
    "circle": _CIRCLE_TRUE,
    "su2": {"one": Fraction(1), "abs-sum": 16 / (3 * _PI), "w2": Fraction(1, 4),
            **_lift(_CIRCLE_TRUE)},
    "so3": {"one": Fraction(1), "trace": Fraction(0)},
    "o3": {"one": Fraction(1), "sign": Fraction(0)},
    "u2": {"one": Fraction(1)},
    "torus": {"one": Fraction(1)},
    "finite": {"one": Fraction(1)},
}
VALID_GROUPS = ["circle", "su2", "so3", "o3", "u2", "torus:1", "torus:2",
                "cyclic:1", "cyclic:6"]


@st.composite
def valid_argv(draw):
    group = draw(st.sampled_from(VALID_GROUPS))
    kind = parse_group(group, None).kind
    name = draw(st.sampled_from(builtin_names(kind)))
    n = draw(st.integers(-3, 7))
    cap = draw(st.sampled_from([0, 1, 2, 3, 100, 10 ** 4]))
    return ["integrate", "--group", group, "--function", f"builtin:{name}",
            "-n", str(n), "--effort-cap", str(cap)], kind, name, n


class TestValidInputFuzz:
    def test_every_builtin_has_a_closed_form(self):
        for kind, values in CLOSED_FORMS.items():
            assert sorted(values) == sorted(builtin_names(kind)), kind

    @settings(max_examples=300, deadline=None)
    @given(case=valid_argv())
    def test_value_within_the_bound_or_a_named_refusal(self, case):
        # a valid request prints one value within 2^-n of the closed form
        # (the printed +- covers the decimal rounding), or refuses with one
        # named error: exit 1 only for a negative precision, exit 2 when an
        # effort cap stops it; never a traceback
        argv, kind, name, n = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert got in (0, 1, 2) and "Traceback" not in out + err, (argv, err)
        assert got == 1 if n < 0 else got != 1, (argv, err)
        if got:
            error, _, message = err.partition(": ")
            assert out == "" and err.count("\n") == 1, (argv, err)
            assert ERRORS_BY_NAME[error].exit_code == got and message.strip(), (argv, err)
            return
        assert err == "" and out.count("\n") == 1, (argv, out, err)
        value, bound = parse_printed(out)
        digits = len(out.split(" +- ")[0].partition(".")[2])
        assert bound <= Fraction(1, 1 << n) + Fraction(1, 10 ** digits), (argv, out)
        true = CLOSED_FORMS[kind][name]
        assert abs(value - true) <= bound, (argv, out)


class TestGroupParsing:
    def test_torus_and_cyclic_specs(self):
        assert parse_group("torus:2", None).dim == 2
        assert parse_group("cyclic:7", None).order == 7
        with pytest.raises(Exception):
            parse_group("dodecahedron", None)

    def test_ball_parsing(self):
        circle = parse_group("circle", None)
        ball = parse_ball("ball(1/4, 1/8)", circle)
        assert RegionOracle(ball.region).distance((Dyadic(1, -2),)) == 0
        T = parse_group("torus:2", None)
        ball = parse_ball("ball(0:1/2, 1/8)", T)
        assert RegionOracle(ball.region).distance((Dyadic(0), Dyadic(1, -1))) == 0

    @pytest.mark.parametrize("group", ["su2", "so3", "o3", "u2"])
    def test_ball_on_a_group_without_located_sets(self, group):
        # the refusal names the group, as LocatedSet.ball's own does
        with pytest.raises(ConfigError,
                           match=f"no located-set backend for group '{group}'"):
            parse_ball("ball(0,1/8)", parse_group(group, None))

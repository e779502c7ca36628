"""CLI behavior: output formats, exit codes, file inputs."""

import math
from fractions import Fraction

import pytest

from haar import cli
from haar.cli import (
    format_certified, format_dyadic_exact_decimal, main, parse_ball,
    parse_group,
)
from haar.exactreal import (
    CertifiedValue, DivisionByIntervalContainingZero, DomainError, Dyadic,
    NoConvergence,
)
from haar.generic import InvalidBound as GenericInvalidBound, PackingExhausted
from haar.groups import EffortExceeded, InvalidCayleyTable
from haar.packing import KappaUnavailable
from haar.quadrature import InvalidBound


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
        assert err.startswith("PackingExhausted: ")
        assert "packing level 3" in err and "the first is 6" in err
        assert "co-inner" not in err

    def test_effort_cap_names_the_levels_tried(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--set", "ball(0,1/4)", "--precision", "10",
                             "--effort-cap", "7")
        assert code == 2 and out == ""
        assert err.startswith("PackingExhausted: ") and "levels 6..7" in err

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
        code, out, err = run(capsys, "measure", "--group", "circle",
                             "--method", "quadrature",
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1

    def test_su2_rejected(self, capsys):
        code, out, err = run(capsys, "measure", "--group", "su2",
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1

    @pytest.mark.parametrize("group", ["torus:0", "torus:-2"])
    def test_torus_below_dimension_one_rejected(self, capsys, group):
        # torus:0 used to measure as the circle, torus:-2 crashed on a float kappa
        code, out, err = run(capsys, "measure", "--group", group,
                             "--set", "ball(0,1/8)", "--precision", "3")
        assert code == 1
        assert out == "" and err.startswith("ValueError: ")


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
        assert code == 2 and "KappaUnavailable" in err


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


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (cli.ConfigError, 1), (InvalidCayleyTable, 1), (FileNotFoundError, 1),
        (ValueError, 1), (NoConvergence, 2), (EffortExceeded, 2),
        (KappaUnavailable, 2), (PackingExhausted, 2), (InvalidBound, 2),
        (GenericInvalidBound, 2), (DomainError, 2),
        (DivisionByIntervalContainingZero, 2),
    ])
    def test_error_class_exit_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_packing", fail)
        got, out, err = run(capsys, "packing", "--group", "circle")
        assert got == code
        assert err.startswith(f"{error.__name__}: ")


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


class TestGroupParsing:
    def test_torus_and_cyclic_specs(self):
        assert parse_group("torus:2", None).dim == 2
        assert parse_group("cyclic:7", None).order == 7
        with pytest.raises(Exception):
            parse_group("dodecahedron", None)

    def test_ball_parsing(self):
        circle = parse_group("circle", None)
        ball = parse_ball("ball(1/4, 1/8)", circle)
        assert ball.region.distance((Dyadic(1, -2),)) == 0
        T = parse_group("torus:2", None)
        ball = parse_ball("ball(0:1/2, 1/8)", T)
        assert ball.region.distance((Dyadic(0), Dyadic(1, -1))) == 0

"""End-to-end command line checks via subprocess."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperinv
from hyperinv import cli, errors

CLI = [sys.executable, "-m", "hyperinv.cli"]


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        CLI + list(args),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def write_curve(tmp_path, coeffs, name="curve.json"):
    path = tmp_path / name
    doc = {"curve": {"coefficients": [str(c) for c in coeffs]}}
    path.write_text(json.dumps(doc))
    return path


def report_of(proc):
    rep = json.loads(proc.stdout)
    assert set(rep) == {"command", "version", "input_digest", "result", "flags"}
    return rep


class TestClassify:
    def test_sextic_plus_one(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 0, 1])
        proc = run_cli("classify", str(path))
        assert proc.returncode == 0
        rep = report_of(proc)
        assert rep["command"] == "classify"
        assert rep["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        res = rep["result"]
        assert res["genus"] == 2
        assert res["group"] == "Z3⋊D8"
        assert res["reduced_order"] == 12
        assert res["u"] == ["0", "0"]
        assert res["locus"] == {"minus": "0", "plus": "0"}
        assert "u-zero-degenerate" in rep["flags"]

    def test_stdin_input(self, tmp_path):
        doc = json.dumps({"curve": {"coefficients": ["1", "0", "15", "0", "15", "0", "1"]}})
        proc = run_cli("classify", "-", stdin=doc)
        assert proc.returncode == 0
        rep = report_of(proc)
        assert rep["result"]["u"] == ["6750", "450"]
        assert rep["input_digest"] == hashlib.sha256(doc.encode()).hexdigest()

    def test_quintic_via_quadratic_model(self, tmp_path):
        path = write_curve(tmp_path, [0, -1, 0, 0, 0, 1])
        proc = run_cli("classify", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["group"] == "GL2(3)"
        assert res["u"] == ["-250", "50"]
        assert res["igusa_clebsch"] == ["-40", "-80", "320", "-256"]

    def test_excluded_point_exit_code(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 1, 0, 1, 0, 1])  # u = (2, 2)
        proc = run_cli("classify", str(path))
        assert proc.returncode == 3
        rep = report_of(proc)
        assert "excluded-locus-point" in rep["flags"]
        assert "error" in rep["result"]

    @pytest.mark.parametrize("k", [10, 15, 55, 60])
    def test_far_branch_point_is_z2(self, tmp_path, k):
        # X^6 + 10^k X^5 + 1 has no involution and I2 = -240: a float root
        # iteration read a near-Z5 here (k = 10, 15) or overflowed (k >= 52)
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 10**k, 1])
        proc = run_cli("classify", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert (res["group"], res["reduced_order"]) == ("Z2", 1)
        assert res["igusa_clebsch"][:3] == ["-240", "1620", "-119880"]

    def test_no_involution_z2_with_candidates(self, tmp_path):
        path = write_curve(tmp_path, [1, 1, 0, 0, 0, 0, 0, 0, 1])
        proc = run_cli("classify", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["group"] == "Z2"
        assert res["u"] is None
        assert res["candidate_orders"] == [3, 4, 7]
        assert "igusa_clebsch" not in res


class TestInvariants:
    def test_result_shape(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 15, 0, 15, 0, 1])
        proc = run_cli("invariants", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res == {
            "genus": 2,
            "u": ["6750", "450"],
            "locus": {"minus": str(2 * 6750**2 - 450**3), "plus": str(2 * 6750**2 + 450**3)},
        }


class TestZeroRadicalPart:
    """A {"a", "b", "d"} scalar with b = 0 is read as the rational a."""

    @pytest.mark.parametrize("command", ["classify", "invariants", "normal-form"])
    def test_same_report_as_rational_spelling(self, command, tmp_path, capsys):
        reports = []
        for const in ({"a": "1", "b": "0", "d": "2"}, "1"):
            path = tmp_path / "curve.json"
            doc = {"curve": {"coefficients": [const, "0", "0", "0", "0", "0", "1"]}}
            path.write_text(json.dumps(doc))
            assert cli.main([command, str(path)]) == 0
            rep = json.loads(capsys.readouterr().out)
            del rep["input_digest"]
            reports.append(rep)
        assert reports[0] == reports[1]
        if command == "classify":
            assert reports[0]["result"]["group"] == "Z3⋊D8"


class TestNormalForm:
    def test_rational_model_map(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 4, 0, 0, 1])
        proc = run_cli("normal-form", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["radicand"] is None
        assert len(res["b"]) == 4
        assert set(res["map"]) == {"a", "b", "c", "d"}

    def test_quintic_needs_sqrt2(self, tmp_path):
        path = write_curve(tmp_path, [0, -1, 0, 0, 0, 1])
        proc = run_cli("normal-form", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["radicand"] == "2"

    def test_no_involution_inconclusive(self, tmp_path):
        path = write_curve(tmp_path, [1, 1, 0, 0, 0, 0, 1])
        proc = run_cli("normal-form", str(path))
        assert proc.returncode == 2
        rep = report_of(proc)
        assert "search-inconclusive" in rep["flags"]
        assert rep["result"]["detail"] == (
            "normal form: curve has no usable reduced involution "
            "(genus 2, 0 certificates)")


class TestRationalModel:
    def test_minus_point(self):
        proc = run_cli("rational-model", "--u", "16,8")
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["branch"] == "minus"
        assert res["verified"] is True
        assert res["curve"]["coefficients"] == ["2", "0", "8", "0", "16", "0", "16"]

    def test_genus_option_checked(self):
        ok = run_cli("rational-model", "--u", "16,8", "--genus", "2")
        assert ok.returncode == 0
        bad = run_cli("rational-model", "--u", "16,8", "--genus", "3")
        assert bad.returncode == 1
        assert "value-error" in report_of(bad)["flags"]

    def test_pipe_into_invariants(self):
        first = run_cli("rational-model", "--u", "16,8")
        assert first.returncode == 0
        second = run_cli("invariants", "-", stdin=first.stdout)
        assert second.returncode == 0
        assert report_of(second)["result"]["u"] == ["16", "8"]

    def test_off_locus(self):
        proc = run_cli("rational-model", "--u", "36,8")
        assert proc.returncode == 1
        rep = report_of(proc)
        assert "not-on-locus" in rep["flags"]

    def test_singular_output(self):
        proc = run_cli("rational-model", "--u", "54,18")
        assert proc.returncode == 1
        assert "singular-output" in report_of(proc)["flags"]

    def test_zero_leading(self):
        proc = run_cli("rational-model", "--u", "0,2")
        assert proc.returncode == 1
        assert "zero-leading" in report_of(proc)["flags"]


class TestCheckMap:
    def test_automorphism(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 0, 1])
        proc = run_cli("check-map", str(path), "--map=-1,0,0,1")
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res == {"is_automorphism": True, "lambda": "1", "order": 2}

    def test_reciprocal(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 4, 0, 0, 1])
        proc = run_cli("check-map", str(path), "--map", "0,1,1,0")
        assert proc.returncode == 0
        assert report_of(proc)["result"]["is_automorphism"] is True

    def test_non_automorphism(self, tmp_path):
        path = write_curve(tmp_path, [1, 1, 0, 0, 0, 0, 1])
        proc = run_cli("check-map", str(path), "--map=-1,0,0,1")
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["is_automorphism"] is False
        assert res["lambda"] is None

    def test_malformed_map(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 0, 1])
        proc = run_cli("check-map", str(path), "--map", "1,2,3")
        assert proc.returncode == 1


class TestOracle:
    def test_order_and_label(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 0, 1])
        proc = run_cli("oracle", str(path))
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res["reduced_order"] == 12
        assert res["label"] == "Z3⋊D8"

    def test_ambiguous_tolerance_exit(self, tmp_path):
        # branch points 4 and 4 + 1e-5 sit under ten times a 1e-4 tolerance:
        # X (X-1) (X-2) (X-3) (X-4) (X-4-1/100000)
        from fractions import Fraction

        from hyperinv.poly import Poly

        f = Poly([1])
        for r in (0, 1, 2, 3, 4):
            f = f * Poly([-r, 1])
        f = f * Poly([-(Fraction(4) + Fraction(1, 100000)), 1])
        path = write_curve(tmp_path, [str(c) for c in f.coeffs])
        proc = run_cli("oracle", str(path), "--tol", "1e-4")
        assert proc.returncode == 2
        assert "tolerance-ambiguity" in report_of(proc)["flags"]


class TestCandidates:
    def test_orders(self):
        proc = run_cli("candidates", "--genus", "5")
        assert proc.returncode == 0
        res = report_of(proc)["result"]
        assert res == {"genus": 5, "orders": [3, 4, 11]}

    def test_genus_required(self):
        proc = run_cli("candidates")
        assert proc.returncode == 2  # argparse usage error


class TestErrorHandling:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("classify", str(path))
        assert proc.returncode == 1
        rep = report_of(proc)
        assert rep["result"]["error"] == "malformed JSON"
        assert "malformed-json" in rep["flags"]

    def test_missing_file(self):
        proc = run_cli("classify", "/nonexistent/path.json")
        assert proc.returncode == 1
        rep = report_of(proc)
        assert rep["result"]["error"] == "unreadable input"
        assert "unreadable-input" in rep["flags"]

    def test_singular_curve(self, tmp_path):
        path = write_curve(tmp_path, [0, 0, 1, 0, 0, 1])
        proc = run_cli("classify", str(path))
        assert proc.returncode == 1
        assert "singular-model" in report_of(proc)["flags"]

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize("doc", [
        {"curve": {"coefficients": ["1/0", "0", "0", "0", "0", "1"]}},
        {"curve": {"coefficients": ["1", "0", "0", "0", "0", {"a": "1", "b": "1", "d": "2/0"}]}},
        {"curve": "x"},
    ], ids=["zero-denominator", "zero-denominator-in-radicand", "curve-not-an-object"])
    def test_malformed_curve_is_invalid_input(self, doc, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["flags"] == ["value-error"]

    @pytest.mark.parametrize("coeffs, value", [
        ([False, 0, 0, 0, 0, True], "False"),
        (["1", "0", "0", "0", "0", "0", True], "True"),
        (["1", "0", "0", "0", "0", "0", {"a": "1", "b": True, "d": "2"}], "True"),
        (["1", "0", "0", "0", "0", "0", {"a": "1", "b": "1", "d": True}], "True"),
    ], ids=["coefficients", "lead", "quadext-part", "quadext-radicand"])
    def test_json_booleans_are_not_scalars(self, coeffs, value, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"curve": {"coefficients": coeffs}}))
        assert cli.main(["classify", str(path)]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["flags"] == ["value-error"]
        assert rep["result"]["detail"] == f"cannot parse scalar from {value}"

    def test_zero_denominator_in_u_is_invalid_input(self, capsys):
        assert cli.main(["rational-model", "--u", "1/0,2"]) == 1
        assert json.loads(capsys.readouterr().out)["flags"] == ["value-error"]

    def test_reports_name_the_package_version(self, tmp_path):
        ok = run_cli("candidates", "--genus", "5")
        invalid = run_cli("classify", str(write_curve(tmp_path, [1, 1])))
        assert (ok.returncode, invalid.returncode) == (0, 1)
        for proc in (ok, invalid):
            assert report_of(proc)["version"] == hyperinv.__version__

    def test_reports_are_single_line(self, tmp_path):
        path = write_curve(tmp_path, [1, 0, 0, 0, 0, 0, 1])
        proc = run_cli("classify", str(path))
        assert proc.stdout.count("\n") == 1
        assert proc.stdout.endswith("\n")


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.HyperinvError)),
    key=lambda c: c.__name__,
)


class TestErrorCategories:
    def test_inconclusive_members(self):
        inconclusive = {c.__name__ for c in ERROR_CLASSES
                        if issubclass(c, errors.Inconclusive)}
        assert inconclusive == {
            "Inconclusive",
            "NonConvergence",
            "ReconstructionInconclusive",
            "SearchInconclusive",
            "ToleranceAmbiguity",
        }

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_reports_json(self, cls, monkeypatch, capsys):
        def handler(args, ctx):
            raise cls("raised by a test handler")

        monkeypatch.setattr(cli, "cmd_candidates", handler)
        code = cli.main(["candidates", "--genus", "5"])
        if cls is errors.ExcludedLocusPoint:
            expected = 3
        elif issubclass(cls, errors.Inconclusive):
            expected = 2
        else:
            expected = 1
        assert code == expected
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["flags"] == [cli._kebab(cls.__name__)]
        assert rep["result"]["detail"] == "raised by a test handler"


def test_cold_start_skips_heavy_modules():
    heavy = ("mpmath", "dataclasses", "inspect", "ast", "dis", "cmath")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, hyperinv.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

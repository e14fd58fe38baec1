import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pathdeg import cli, cycle, fixture, formats, subdivide
from pathdeg.cli import Report, main, run
from pathdeg.formats import parse_order, serialize_coloring, serialize_edge_list, serialize_order
from pathdeg.wcol import WcolBoundParams, weak_order, wcol_under_order, wreach_all, wreach_bound_ok

from conftest import random_cubic, triangle_row


class TestLoadAndAnalyze:
    def test_fixture_source(self):
        report = run(["analyze", "--graph", "fixture:petersen"])
        assert report.ok
        assert report.input == {"order": 10, "size": 15, "girth": 5,
                                "mad": "3/1", "mad_real": 3.0}

    def test_g6_source(self):
        report = run(["analyze", "--graph", "g6:Bw"])
        assert report.input["order"] == 3

    def test_file_source(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n2 0\n")
        report = run(["analyze", "--graph", str(f)])
        assert report.input["girth"] == 3

    def test_subdivide_flag(self):
        report = run(["analyze", "--graph", "fixture:dodecahedron", "--subdivide", "1"])
        assert report.input == {"order": 50, "size": 60, "girth": 10,
                                "mad": "12/5", "mad_real": 2.4}

    def test_long_subdivision_mad(self):
        # K4 with 2000 vertices on each edge: the whole graph is densest
        report = run(["analyze", "--graph", "fixture:k4", "--subdivide", "2000"])
        assert report.input["mad"] == "6003/3001"

    def test_forest_girth_rendering(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n")
        report = run(["analyze", "--graph", str(f)])
        assert report.input["girth"] == "infinite"

    def test_error_report(self):
        report = run(["analyze", "--graph", "fixture:nope"])
        assert not report.ok and report.result["error"] == "ValueError"

    def test_subdivide_capped_before_allocation(self, monkeypatch):
        def subdivide(g, k):
            raise AssertionError(f"would allocate {g.n + k * g.m} adjacency sets")

        monkeypatch.setattr(cli, "subdivide", subdivide)
        report = run(["analyze", "--graph", "fixture:petersen", "--subdivide", "1000000000"])
        assert not report.ok and report.result["error"] == "FormatError"
        assert f"limit of {formats.MAX_VERTICES}" in report.result["message"]

    def test_subdivide_at_cap_accepted(self, monkeypatch):
        # petersen: 10 + 15 * 17202 = 258040 <= MAX_VERTICES < 10 + 15 * 17203
        calls = []
        monkeypatch.setattr(cli, "subdivide", lambda g, k: calls.append(k) or g)
        assert run(["analyze", "--graph", "fixture:petersen", "--subdivide", "17202"]).ok
        assert run(["analyze", "--graph", "fixture:petersen", "--subdivide", "17203"]).result["error"] == "FormatError"
        assert calls == [17202]


class TestCheck:
    def test_degenerate_with_certificate(self):
        report = run(["check", "-p", "3", "--graph", "fixture:dodecahedron", "--subdivide", "2"])
        assert report.ok
        assert report.result["degenerate"] is True
        assert report.verification["certificate_replays"] is True
        assert report.result["certificate"]

    def test_irreducible_with_witness(self):
        report = run(["check", "-p", "3", "--graph", "fixture:dodecahedron", "--subdivide", "1"])
        assert report.ok
        assert report.result["degenerate"] is False
        assert report.verification["witness_irreducible"] is True
        assert report.result["witness_order"] == 50

    def test_oracle_flag(self):
        report = run(["check", "-p", "4", "--graph", "g6:" + "Dhc"])
        oracle = run(["check", "-p", "4", "--oracle", "--graph", "g6:" + "Dhc"])
        assert oracle.result["engine"] == "backtracking"
        assert report.result["degenerate"] == oracle.result["degenerate"]

    def test_oracle_on_long_triangle_row(self, tmp_path):
        # needs 600 successive ear deletions, deeper than the interpreter's recursion limit
        f = tmp_path / "row.txt"
        f.write_text(serialize_edge_list(triangle_row(600)))
        report = run(["check", "-p", "2", "--oracle", "--graph", str(f)])
        assert report.ok
        assert report.result == {"p": 2, "degenerate": True, "engine": "backtracking"}

    def test_exact_ears_flag(self):
        report = run(["check", "-p", "4", "--exact-ears",
                      "--graph", "fixture:dodecahedron", "--subdivide", "3"])
        assert report.ok and report.result["degenerate"] is True
        ear_lines = [l for l in report.result["certificate"] if l.startswith("E ")]
        assert ear_lines and all(len(l.split()) - 1 == 5 for l in ear_lines)


class TestColoringCommands:
    def test_color_arb(self):
        report = run(["color-arb", "-r", "2", "--graph", "fixture:dodecahedron", "--subdivide", "2"])
        assert report.ok
        assert report.result["colors_used"] == 3
        assert report.verification["cycle_rainbow_ok"] is True

    def test_color_acyclic(self):
        report = run(["color-acyclic", "-r", "3", "--graph", "fixture:dodecahedron", "--subdivide", "3"])
        assert report.ok
        assert report.verification["proper"] is True
        assert report.verification["cycle_rainbow_ok"] is True

    def test_color_arb_on_long_cycle(self, tmp_path):
        n = 1100
        labels = list(range(n))
        random.Random(1100).shuffle(labels)
        f = tmp_path / "long_cycle.txt"
        f.write_text("".join(f"{labels[i]} {labels[(i + 1) % n]}\n" for i in range(n)))
        report = run(["color-arb", "-r", "2", "--graph", str(f)])
        assert report.ok and report.input["girth"] == n

    @pytest.mark.parametrize("command", ["color-arb", "color-acyclic"])
    def test_subdivided_random_cubic(self, tmp_path, command):
        # cycle space of dimension 60 - 40 + 1 = 21 on 220 vertices: over 100,000 cycles
        g = subdivide(random_cubic(40, random.Random(220)), 3)
        f = tmp_path / "cubic.txt"
        f.write_text(serialize_edge_list(g))
        report = run([command, "-r", "3", "--graph", str(f)])
        assert report.ok and report.input["order"] == 220
        assert report.verification["cycle_rainbow_ok"] is True

    def test_rejects_irreducible_input(self):
        report = run(["color-arb", "-r", "1", "--graph", "fixture:dodecahedron"])
        assert not report.ok and report.result["error"] == "NotPathDegenerate"


class TestWcolOrderCommand:
    def test_constructed_and_verified(self):
        report = run(["wcol-order", "-r", "3", "-q", "4",
                      "--graph", "fixture:dodecahedron", "--subdivide", "7"])
        assert report.ok
        assert report.verification["all_within_bound"] is True
        assert report.result["wcol_under_order"] <= 6


class TestWreachReports:
    """wcol-order and verify order share one per-radius WReach check, and
    wcol-order reads its weak coloring number off the radius-r sets.  The
    reports must equal those built with one wreach_all call per radius
    and a separate wcol_under_order."""

    @staticmethod
    def reference_verification(g, order, params):
        per_x = {}
        ok = True
        for x in range(params.r + 1):
            worst = max((len(s) for s in wreach_all(g, order, x)), default=0)
            good = wreach_bound_ok(worst, x, params)
            per_x[str(x)] = {"max_wreach": worst, "ok": good}
            ok = ok and good
        return {"bound_per_radius": per_x, "all_within_bound": ok}

    @staticmethod
    def assert_same_report(report, expected):
        for as_json in (False, True):
            assert report.render(as_json) == expected.render(as_json)

    @pytest.mark.parametrize("name, k, r, q", [("dodecahedron", 7, 3, 4), ("petersen", 3, 1, 2),
                                               ("heawood", 6, 2, 3), ("tutte-coxeter", 6, 1, 3)])
    def test_wcol_order(self, name, k, r, q):
        argv = ["wcol-order", "-r", str(r), "-q", str(q), "--graph", f"fixture:{name}", "--subdivide", str(k)]
        report = run(argv)
        g = subdivide(fixture(name), k)
        params = WcolBoundParams(r, q)
        order = weak_order(g, params)
        verification = self.reference_verification(g, order, params)
        result = {"r": r, "q": q, "order": serialize_order(order).strip(),
                  "wcol_under_order": wcol_under_order(g, order, r)}
        self.assert_same_report(report, Report(" ".join(argv), report.input, result, verification,
                                               verification["all_within_bound"]))

    @pytest.mark.parametrize("sequence, r, q", [(None, 3, 4), (None, 1, 2), ("3 2 1 6 7 8 4 5 0", 3, 4)])
    def test_verify_order(self, tmp_path, sequence, r, q):
        g = cycle(9)
        order = weak_order(g, WcolBoundParams(3, 4))
        gfile = tmp_path / "g.txt"
        gfile.write_text(serialize_edge_list(g))
        ofile = tmp_path / "order.txt"
        ofile.write_text(serialize_order(order) if sequence is None else sequence)
        argv = ["verify", "order", "--graph", str(gfile), "--input", str(ofile), "-r", str(r), "-q", str(q)]
        report = run(argv)
        if sequence is not None:
            order = parse_order(sequence)
        verification = self.reference_verification(g, order, WcolBoundParams(r, q))
        self.assert_same_report(report, Report(" ".join(argv), report.input, {}, verification,
                                               verification["all_within_bound"]))


class TestBoundsCommand:
    def test_minor_closed(self):
        report = run(["bounds", "minor-closed", "-d", "6", "-p", "2"])
        assert report.result["integer_girth_threshold"] == 19
        assert report.result["threshold"] == pytest.approx(18.5098, abs=1e-3)

    def test_polynomial(self):
        report = run(["bounds", "polynomial", "-a", "1", "-b", "1", "-p", "2"])
        assert report.result["threshold"] == 40

    def test_polynomial_past_float_scale(self):
        # (24*sqrt(2)*1e300)**1000 overflows a float; its logarithm does not
        report = run(["bounds", "polynomial", "-a", "1e300", "-b", "0.001", "-p", "2"])
        assert report.ok and report.result["integer_girth_threshold"] == 4011

    def test_polynomial_past_half_the_float_range(self):
        # u = log(A*C*p) - 1 is about 1e308 here, so 2u overflows; at
        # -b 1e-306 log C itself overflows and the evaluator refuses it
        report = run(["bounds", "polynomial", "-a", "1e300", "-b", "7e-306", "-p", "2"])
        assert report.ok and report.result["integer_girth_threshold"] == 4011
        report = run(["bounds", "polynomial", "-a", "1e300", "-b", "1e-306", "-p", "2"])
        assert not report.ok and report.result["error"] == "ValueError"
        assert "a = 1e+300, b = 1e-306" in report.result["message"]

    def test_polynomial_zero_case(self):
        # A*C*p < e: the inequality holds for every r, so gamma = 4 and the
        # threshold is 7*(p-1)
        report = run(["bounds", "polynomial", "-a", "0.01", "-b", "1", "-p", "2"])
        assert report.ok and report.result["threshold"] == 7.0
        assert report.result["integer_girth_threshold"] == 8

    def test_subexponential_constant(self):
        report = run(["bounds", "subexponential", "-a", "1", "-b", "0", "-p", "2"])
        assert report.result["threshold"] == 27

    @pytest.mark.parametrize("a, b", [("-5", "1"), ("1", "-1")])
    @pytest.mark.parametrize("theorem", ["polynomial", "subexponential"])
    def test_rejects_nonpositive_density(self, theorem, a, b):
        report = run(["bounds", theorem, "-a", a, "-b", b, "-p", "3"])
        assert not report.ok and report.result["error"] == "ValueError"

    def test_subexponential_past_float_range(self):
        report = run(["bounds", "subexponential", "-a", "1e308", "-b", "0", "-p", "2"])
        assert report.ok and report.result["integer_girth_threshold"] == 12292

    def test_subexponential_past_float_power(self):
        # (6r + 1/2)**100 overflows a float long before (12r+1)**100 < 2**(r+100)
        # first holds, at r = 1293 (checked in integers)
        report = run(["bounds", "subexponential", "-a", "1", "-b", "100", "-p", "2"])
        assert report.ok and report.result["threshold"] == 15519.0
        assert report.result["integer_girth_threshold"] == 15520
        assert report.result["provenance"] == "sub-exponential (r=1293)"

    def test_subexponential_fractional_exponent(self):
        # 3*(12r + 1/2)**2.5 < 2**r first holds at r = 22: 9*(24r+1)**5 < 2**(2r+5)
        report = run(["bounds", "subexponential", "-a", "3", "-b", "2.5", "-p", "4"])
        assert report.ok and report.result["provenance"] == "sub-exponential (r=22)"

    def test_subexponential_power_of_two_constant(self):
        # a = 2**94 is a float; a*1 rounded to 28 digits to nearest falls
        # below 2**94, so only an envelope rounded up stops at r = 95
        report = run(["bounds", "subexponential", "-a", str(2 ** 94), "-b", "0", "-p", "2"])
        assert report.ok and report.result["provenance"] == "sub-exponential (r=95)"

    @pytest.mark.parametrize("b", ["1e6", "1e18"])
    def test_subexponential_huge_exponent_is_a_typed_error(self, capsys, b):
        assert main(["bounds", "subexponential", "-b", b]) == 1
        out, err = capsys.readouterr()
        assert "result.error: ValueError\n" in out and "no r <= 10000" in out
        assert "ok: False" in out and err == ""

    @pytest.mark.parametrize("argv, message", [
        (["polynomial", "-a", "nan"], "a and b must be positive"),
        (["polynomial", "-b", "nan"], "a and b must be positive"),
        (["minor-closed", "-d", "nan"], "d must be >= 2 and finite"),
        (["subexponential", "-a", "nan"], "a must be positive and b non-negative"),
        (["subexponential", "-b", "nan"], "a must be positive and b non-negative"),
        (["clique", "--gamma", "nan"], "gamma must be positive and finite"),
        (["lower-poly", "-b", "nan"], "b must be positive"),
        (["lower-poly", "--alpha", "nan"], "alpha must be in (0, 1]"),
        (["minor-closed", "-d", "inf"], "d must be >= 2 and finite"),
        (["clique", "--gamma", "inf"], "gamma must be positive and finite"),
        (["lower-poly", "-b", "inf", "-p", "3"], "(p-1)*b overflows a float for b = inf, p = 3"),
        (["polynomial", "-a", "inf"], "the threshold of x > A*log(x) + B overflows a float for a = inf, b = 1.0, p = 2"),
        (["polynomial", "-a", "0.01", "-b", "1e300", "-p", "1000000"],
         "the girth overflows a float for a = 0.01, b = 1e+300, p = 1000000"),
        (["lower-poly", "-b", "1e307", "-p", "3"], "the girth overflows a float for b = 1e+307, p = 3, alpha = 0.75"),
    ])
    def test_nan_parameter_refused_by_its_check(self, argv, message):
        report = run(["bounds", *argv])
        assert not report.ok
        assert report.result == {"error": "ValueError", "message": message}

    def test_wcol_rule(self):
        report = run(["bounds", "wcol-rule", "-r", "3", "-q", "4"])
        assert report.result["wcol_bound"] == 6

    def test_lower_poly(self):
        report = run(["bounds", "lower-poly", "-b", "1", "-p", "3", "--alpha", "1"])
        assert report.result["girth_lower_bound"] == pytest.approx(8.0, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        [theorem] for theorem in ("polynomial", "minor-closed", "subexponential", "clique", "wcol-rule", "lower-poly")
    ] + [
        ["polynomial", "-a", "1e300", "-b", "7e-306", "-p", "2"],
        ["polynomial", "-a", "0.01", "-b", "1e300", "-p", "1000000"],
        ["minor-closed", "-d", "1e308", "-p", str(10 ** 308)],
        ["clique", "-p", str(10 ** 320)],
        ["subexponential", "-a", "1e308", "-b", "0"],
        ["lower-poly", "-b", "1e307", "-p", "3"],
        ["lower-poly", "-b", "1", "-p", str(10 ** 320)],
        ["lower-poly", "-b", "inf", "-p", "3"],
        ["polynomial", "-a", "nan"],
    ])
    def test_json_report_is_strict(self, argv, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        main(["bounds", "--json", *argv])
        json.loads(capsys.readouterr().out, parse_constant=refuse)


class TestVerifyCommand:
    def test_certificate_round_trip(self, tmp_path):
        from pathdeg import cycle
        from pathdeg.formats import serialize_certificate
        from pathdeg.reduction import is_p_path_degenerate

        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        gfile = tmp_path / "g.txt"
        gfile.write_text(serialize_edge_list(g))
        cfile = tmp_path / "cert.txt"
        cfile.write_text(serialize_certificate(cert))
        report = run(["verify", "certificate", "--graph", str(gfile),
                      "--input", str(cfile), "-p", "4"])
        assert report.ok and report.verification["certificate_replays"] is True
        # wrong p: the ear is too short for p=9
        report = run(["verify", "certificate", "--graph", str(gfile),
                      "--input", str(cfile), "-p", "9"])
        assert not report.ok

    @pytest.mark.parametrize("p", ["1", "0"])
    def test_certificate_refuses_p_below_2(self, tmp_path, p):
        gfile = tmp_path / "g.txt"
        gfile.write_text("0 1\n")
        cfile = tmp_path / "cert.txt"
        cfile.write_text("L 0\nI 1\n")
        report = run(["verify", "certificate", "--graph", str(gfile), "--input", str(cfile), "-p", p])
        assert not report.ok
        assert report.result == {"error": "ValueError", "message": "p must be >= 2"}

    def test_coloring(self, tmp_path):
        from pathdeg import fixture, subdivide
        from pathdeg.colorings import arboricity_coloring

        g = subdivide(fixture("dodecahedron"), 2)
        col = arboricity_coloring(g, 2)
        cfile = tmp_path / "col.txt"
        cfile.write_text(serialize_coloring(col))
        report = run(["verify", "coloring", "--graph", "fixture:dodecahedron", "--subdivide", "2",
                      "--input", str(cfile), "--threshold", "3"])
        assert report.ok and report.verification["cycle_rainbow_ok"] is True

    def test_order(self, tmp_path):
        from pathdeg import cycle
        from pathdeg.wcol import WcolBoundParams, weak_order

        g = cycle(9)
        order = weak_order(g, WcolBoundParams(3, 4))
        ofile = tmp_path / "order.txt"
        ofile.write_text(serialize_order(order))
        gfile = tmp_path / "g.txt"
        gfile.write_text(serialize_edge_list(g))
        report = run(["verify", "order", "--graph", str(gfile),
                      "--input", str(ofile), "-r", "3", "-q", "4"])
        assert report.ok and report.verification["all_within_bound"] is True

    def test_bad_order_fails(self, tmp_path):
        from pathdeg import cycle

        g = cycle(9)
        gfile = tmp_path / "g.txt"
        gfile.write_text(serialize_edge_list(g))
        ofile = tmp_path / "order.txt"
        # vertex 0 goes last with both distance-3 arcs arranged
        # inner-before-outer, so it weakly 3-reaches 7 vertices
        ofile.write_text("3 2 1 6 7 8 4 5 0")
        report = run(["verify", "order", "--graph", str(gfile),
                      "--input", str(ofile), "-r", "3", "-q", "4"])
        assert not report.ok

    def test_bad_coloring_fails(self, tmp_path):
        from pathdeg import cycle
        from pathdeg.formats import serialize_edge_list as ser

        g = cycle(5)
        gfile = tmp_path / "g.txt"
        gfile.write_text(ser(g))
        cfile = tmp_path / "col.txt"
        cfile.write_text("\n".join(f"{u} {v} 1" for u, v in sorted(g.edges)))
        report = run(["verify", "coloring", "--graph", str(gfile),
                      "--input", str(cfile), "--threshold", "2"])
        assert not report.ok

    def test_improper_coloring_fails(self, tmp_path):
        # a path has no cycle, so only properness can fail
        cfile = tmp_path / "col.txt"
        cfile.write_text("0 1 1\n1 2 1\n")
        report = run(["verify", "coloring", "--graph", "g6:Bg", "--input", str(cfile),
                      "--proper", "--threshold", "2"])
        assert list(report.verification.items()) == [
            ("proper", False), ("cycle_rainbow_threshold", 2), ("cycle_rainbow_ok", True)]
        assert not report.ok

    def test_threshold_below_two_refused(self, tmp_path):
        cfile = tmp_path / "col.txt"
        cfile.write_text("0 1 1\n1 2 1\n0 2 1\n")
        report = run(["verify", "coloring", "--graph", "g6:Bw", "--input", str(cfile), "--threshold", "1"])
        assert not report.ok
        assert report.result == {"error": "ValueError", "message": "t must be >= 2"}

    def test_edge_colored_twice_refused(self, tmp_path):
        cfile = tmp_path / "col.txt"
        cfile.write_text("0 1 2\n1 2 2\n0 2 3\n0 1 1\n")
        report = run(["verify", "coloring", "--graph", "g6:Bw", "--input", str(cfile), "--threshold", "3"])
        assert not report.ok and report.result["error"] == "FormatError"


class TestDensityCommand:
    def test_mad_and_nabla(self):
        report = run(["density", "--graph", "fixture:k4", "--nabla", "1/2"])
        assert report.input["mad"] == "3/1"
        assert report.result["nabla"] == "3/2"

    def test_nabla_refuses_large_graph_cleanly(self):
        report = run(["density", "--nabla", "1/2", "--graph", "fixture:k4", "--subdivide", "170"])
        assert report.input["order"] == 1024
        assert not report.ok
        assert report.result == {"error": "StateCapExceeded", "message": "more than 300000 partition states"}

    @pytest.mark.parametrize("depth", [["--nabla", "-1"], ["--nabla=-1/2"]])
    def test_negative_depth_refused(self, depth):
        report = run(["density", "--graph", "fixture:k4", *depth])
        assert report.result == {"error": "ValueError", "message": "r must be a nonnegative half-integer"}
        assert not report.ok
        assert "ok: False" in report.render(as_json=False)


class TestDeterminismAndExit:
    def test_reports_byte_identical(self):
        args = ["check", "-p", "4", "--graph", "fixture:dodecahedron", "--subdivide", "3"]
        a = run(args).render(as_json=True)
        b = run(args).render(as_json=True)
        assert a == b

    def test_json_parses(self):
        text = run(["analyze", "--graph", "fixture:k4"]).render(as_json=True)
        doc = json.loads(text)
        assert doc["ok"] is True

    @pytest.mark.parametrize("argv", [["--json", "analyze", "--graph", "fixture:k4"],
                                      ["analyze", "--graph", "fixture:k4", "--json"],
                                      ["bounds", "--json", "wcol-rule"]])
    def test_json_before_or_after_the_command(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == " ".join(argv)
        assert out == run(argv).render(as_json=True) + "\n"

    def test_text_unless_json_is_given(self, capsys):
        assert main(["analyze", "--graph", "fixture:k4"]) == 0
        assert capsys.readouterr().out.startswith("command: analyze --graph fixture:k4\n")

    def test_other_unknown_arguments_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--graph", "fixture:k4", "--json", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_exit_codes(self, capsys):
        assert main(["analyze", "--graph", "fixture:k4"]) == 0
        assert main(["color-arb", "-r", "1", "--graph", "fixture:dodecahedron"]) == 1
        capsys.readouterr()

    def test_closed_pipe_exits_without_traceback(self):
        # the report (about 266 kB) overfills the pipe, so printing it
        # meets the closed read end
        argv = ["color-arb", "-r", "2", "--graph", "fixture:dodecahedron", "--subdivide", "600"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                                          os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "pathdeg.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"command: " + " ".join(argv).encode() + b"\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and err == b""

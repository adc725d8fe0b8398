import json
import math

import numpy as np
import pytest

from qhm import (
    GlueSpec,
    ball_chain,
    glue,
    interval_grid,
    load_space,
    m_constant,
    random_metric,
    save_space,
    validate_metric,
)
from qhm.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyVerb:
    def test_fixture_nonstrict(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture", "nw-thm2.9")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NonStrict"
        assert "kernel_basis" in payload and "flat_values" in payload
        assert len(payload["eigenvalues"]) == 5

    def test_fixture_nonqhm_has_witness(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture", "nw-thm2.9a")
        payload = json.loads(out)
        assert payload["verdict"] == "NotQuasihypermetric"
        assert len(payload["witness"]["weights"]) == 5

    def test_space_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        save_space(interval_grid(0, 1, 4), path)
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "Strict"

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 1
        code, _, _ = run_cli(capsys, "classify", "x.json", "--fixture", "k")
        assert code == 1


class TestMconstantVerb:
    def test_finite_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "3", "mconstant",
                               "--fixture", "interval-5",
                               "--oracle-iters", "50000")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "finite"
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert payload["oracle"]["best_value"] == pytest.approx(0.5, abs=1e-4)

    def test_infinite_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "mconstant", "--fixture", "nw-thm2.9a",
                               "--oracle-iters", "20000")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "infinite"
        assert payload["oracle"]["status"] == "blowup"

    def test_infinite_with_check_measure(self, capsys):
        code, out, _ = run_cli(capsys, "mconstant", "--fixture", "nw-thm2.9",
                               "--check-measure",
                               "0.5,0.5,-0.333333333333333333,"
                               "-0.333333333333333333,-0.333333333333333333")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "infinite"
        assert payload["reason"] == "NonzeroFlatKernel"
        check = payload["check_measure"]
        assert check["potential_mean"] == pytest.approx(-1.0 / 60.0, abs=1e-10)
        assert check["potential_spread"] <= 1e-10

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "dec.json"
        code, _, _ = run_cli(capsys, "--out", str(out_path), "mconstant",
                             "--fixture", "circle-4")
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["value"] == pytest.approx(math.pi / 2)


    def test_near_boundary_glue_is_finite(self, capsys, tmp_path):
        # 2 points at distance 1 (M = 1/2) glued to 3 points at distance 0.8
        # (M = 8/15) at c = c0 (1 + 3e-9), c0 = 31/60 the boundary: Strict,
        # with a maximizer of total variation about 1.1e7
        m_x, m_y = 0.5, 8.0 / 15.0
        c = 0.5 * (m_x + m_y) * (1.0 + 3e-9)
        blocks = [validate_metric(d * (1.0 - np.eye(k)))
                  for k, d in ((2, 1.0), (3, 0.8))]
        path = tmp_path / "glue.json"
        save_space(glue(GlueSpec(*blocks, c)), path)
        code, out, _ = run_cli(capsys, "mconstant", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "finite"
        assert payload["diagnostics"]["verdict"] == "Strict"
        gap = 2.0 * c - m_x - m_y
        eps = 64.0 * np.finfo(np.float64).eps * (m_x + m_y) / gap
        assert payload["value"] == pytest.approx((c * c - m_x * m_y) / gap,
                                                 rel=eps)
        assert payload["diagnostics"]["measure_l1"] > 1e7
        code, out, _ = run_cli(capsys, "invariant", str(path))
        assert code == 0
        assert json.loads(out)["found"]


    def test_in_band_glue_is_infinite(self, capsys, tmp_path):
        # a 401-point ball glued to 2 points at distance 1 at c = c0 (1 +
        # 2e-8): lambda_min(B) is inside the verdict's band, and the
        # degenerate direction's constant potential value explains why the
        # invariant solve is rejected
        _, _, (x,) = ball_chain([401])
        c = 0.5 * (m_constant(x).value + 0.5) * (1.0 + 2e-8)
        path = tmp_path / "glue.json"
        save_space(glue(GlueSpec(x, validate_metric([[0, 1], [1, 0]]), c)),
                   path)
        code, out, _ = run_cli(capsys, "mconstant", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "infinite"
        assert payload["reason"] == "NonzeroFlatKernel"
        assert payload["diagnostics"]["verdict"] == "NonStrict"


class TestInvariantVerb:
    def test_unique_solution(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--fixture", "interval-3")
        payload = json.loads(out)
        assert payload["found"] and payload["unique"]
        assert payload["value"] == pytest.approx(0.5)

    def test_non_unique_on_circle(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--fixture", "circle-4")
        payload = json.loads(out)
        assert payload["found"] and not payload["unique"]

    def test_no_solution(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--fixture", "nw-thm2.9")
        assert code == 0
        assert json.loads(out) == {"found": False}


class TestGlueVerb:
    def test_glues_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_space(random_metric(2, 0), a)
        save_space(random_metric(3, 1), b)
        out_path = tmp_path / "z.json"
        code, _, _ = run_cli(capsys, "--out", str(out_path), "glue",
                             str(a), str(b), "1.5")
        assert code == 0
        z = load_space(out_path)
        assert z.n == 5
        assert z.dist[0, 3] == 1.5

    def test_cross_distance_validation_exit_code(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        save_space(random_metric(3, 5), a)
        code, _, err = run_cli(capsys, "glue", str(a), str(a), "0.2")
        assert code == 2
        assert "validation error" in err


class TestFixturesVerb:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        assert "nw-thm2.9a" in json.loads(out)["keys"]

    def test_show_and_write(self, capsys, tmp_path):
        out_path = tmp_path / "space.json"
        code, out, _ = run_cli(capsys, "--out", str(out_path), "fixtures",
                               "interval-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["expected"]["m_value"] == 0.5
        assert load_space(out_path).n == 3

    def test_unknown_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fixtures", "zzz")
        assert code == 2


class TestExperimentVerbs:
    def test_converge_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--family", "interval",
                               "--sizes", "2,3,5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("k,n,status")
        assert len(lines) == 4

    def test_converge_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "converge",
                               "--family", "circle", "--sizes", "4,8")
        payload = json.loads(out)
        assert payload["metadata"]["experiment"] == "converge-circle"
        assert len(payload["rows"]) == 2

    def test_converge_csv_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "--out", str(out_path), "converge",
                               "--family", "interval", "--sizes", "2,3")
        assert code == 0
        assert json.loads(out)["rows_csv"] == str(out_path)
        assert out_path.read_text().startswith("k,n,status")

    def test_glue_diverge(self, capsys):
        code, out, _ = run_cli(capsys, "glue-diverge", "--sizes", "11,21")
        assert code == 0
        assert out.startswith("k,n,m_component")

    def test_equal_glue_demo(self, capsys):
        code, out, _ = run_cli(capsys, "equal-glue-demo", "--n", "3")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 8
        assert all(",true," in r for r in rows)

    def test_bad_sizes_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--family", "interval",
                               "--sizes", "abc")
        assert code == 1

    @pytest.mark.parametrize("verb, sizes", [
        (["converge", "--family", "ball3"], "-5,3"),
        (["converge", "--family", "ball3"], "7,8"),
        (["glue-diverge"], "7,8"),
        (["converge", "--family", "interval"], "5,3")])
    def test_collapsing_sizes_exit_2(self, capsys, verb, sizes):
        # "-5,3" on ball3 used to print two 6-point rows and exit 0
        code, out, err = run_cli(capsys, *verb, "--sizes", sizes)
        assert code == 2 and out == ""
        assert err.startswith("validation error: ")

    @pytest.mark.parametrize("verb,first_col", [
        ("converge", "k,n,status"), ("glue-diverge", "k,n,m_component"),
        ("equal-glue-demo", "k,kind,n")])
    def test_csv_schema_documented_in_help(self, capsys, verb, first_col):
        code, out, _ = run_cli(capsys, verb, "--help")
        assert code == 0
        assert first_col in out


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "classify" in out

    def test_validation_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}')
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli(capsys, "classify", str(bad))[0] == 2

    @pytest.mark.parametrize("matrix", [
        "[[0, 1, 2], [1, 0]]",
        '[[0, "1"], ["1", 0]]',
        "[[0, true], [true, 0]]",
    ])
    @pytest.mark.parametrize("verb", ["classify", "mconstant"])
    def test_malformed_matrix_exit_2(self, capsys, tmp_path, matrix, verb):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matrix": %s}' % matrix)
        code, out, err = run_cli(capsys, verb, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: matrix row ")
        assert "Traceback" not in err

    def test_integer_beyond_float_range_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        big = "1" + "0" * 400
        bad.write_text('{"matrix": [[0, %s], [%s, 0]]}' % (big, big))
        code, out, err = run_cli(capsys, "mconstant", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: matrix entries must be "
                              "within float64 range")

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run_cli(capsys, "classify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: not UTF-8 text")

    @pytest.mark.parametrize("args", [
        ["classify", "{dir}"], ["mconstant", "{dir}"], ["invariant", "{dir}"],
        ["glue", "{dir}", "{file}", "2"], ["glue", "{file}", "{dir}", "2"],
    ])
    def test_directory_is_a_usage_error(self, capsys, tmp_path, args):
        path = tmp_path / "x.json"
        save_space(interval_grid(0, 1, 4), path)
        argv = [a.format(dir=tmp_path, file=path) for a in args]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "is a directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["classify", "--fixture", "nw-thm2.9"],
        ["converge", "--family", "interval", "--sizes", "2,3"],
        ["glue", "{file}", "{file}", "2"],
        ["fixtures", "interval-3"],
    ], ids=["json-verb", "experiment-verb", "glue", "fixtures"])
    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path, args):
        # each used to end in a FileNotFoundError traceback
        path = tmp_path / "x.json"
        save_space(interval_grid(0, 1, 4), path)
        out = tmp_path / "no-such-dir" / "out.txt"
        code, stdout, err = run_cli(capsys, "--out", str(out),
                                    *[a.format(file=path) for a in args])
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err and not out.parent.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code, _, err = run_cli(capsys, "--tol", tol, "classify", "--fixture",
                               "nw-thm2.9a")
        assert code == 2
        assert "tol" in err

    @pytest.mark.parametrize("args", [
        ["--seed", "-1", "mconstant", "--fixture", "interval-5",
         "--oracle-iters", "10"],
        ["mconstant", "--fixture", "interval-5",
         "--oracle-iters", str(10 ** 30)],
    ], ids=["negative-seed", "huge-oracle-iters"])
    def test_bad_oracle_count_exit_2(self, capsys, args):
        # both used to end in a numpy traceback with exit 1
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: need at least ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_default_tol_in_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "1e-09" in out

    def test_solver_error_exit_3(self, capsys, monkeypatch):
        import qhm.cli as cli_mod
        from qhm.errors import InconsistencyError

        def boom(space, tol):
            raise InconsistencyError("forced")

        monkeypatch.setattr(cli_mod, "m_constant", boom)
        code, _, err = run_cli(capsys, "mconstant", "--fixture", "interval-3")
        assert code == 3
        assert "solver error" in err

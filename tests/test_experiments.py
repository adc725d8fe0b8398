import json
import math

import pytest

import qhm.experiments
from qhm import (
    ball_chain,
    m_constant,
    run_converge,
    run_equal_glue_demo,
    run_glue_diverge,
    sequence_diagnostics,
)
from qhm.cli import main
from qhm.errors import InvalidInputError, QhmError


def _strip_elapsed(csv_text: str) -> list[str]:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    drop = [i for i, c in enumerate(header) if "elapsed" in c]
    keep = [i for i in range(len(header)) if i not in drop]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


class TestConverge:
    def test_interval_family(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_converge("interval", [2, 3, 5, 9], seed=0)
        res.write_csv(out)
        assert [r["n"] for r in res.rows] == [2, 3, 5, 9]
        for r in res.rows:
            assert r["status"] == "finite"
            assert r["m_value"] == pytest.approx(0.5, abs=1e-9)
        # nested family carries chain diagnostics
        assert res.rows[1]["chain_step"] <= 1e-6
        assert out.read_text().startswith("k,n,status")
        assert "diagnostics_csv" not in res.metadata
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    def test_rows_carry_the_chain_diagnostics(self):
        # every column of a sequence_diagnostics table is on the rows: n_k
        # is n, flatness and seminorm_step are chain_flatness and
        # chain_step, and i_mu, the energy of the measure on the largest
        # space, is m_value
        sizes = [51, 101, 201]
        res = run_converge("ball3", sizes, seed=0)
        full, chains, spaces = ball_chain(sizes)
        table = sequence_diagnostics(
            full, chains,
            [m_constant(x).maximal_measure.weights for x in spaces])
        assert [r["k"] for r in res.rows] == [t.k for t in table] == [0, 1, 2]
        for row, t in zip(res.rows, table):
            assert row["n"] == t.n_k
            assert row["chain_flatness"] == t.flatness
            assert row["chain_step"] == t.seminorm_step
            assert t.i_mu == pytest.approx(row["m_value"], rel=1e-12)
        assert res.rows[0]["chain_step"] is None

    def test_circle_family(self):
        res = run_converge("circle", [4, 8, 16], seed=0)
        for r in res.rows:
            assert r["m_value"] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_ball_family_small(self):
        res = run_converge("ball3", [21, 41], seed=0)
        values = [r["m_value"] for r in res.rows]
        assert values[0] <= values[1] < 2.0
        assert all(r["m_value"] >= r["i_uniform"] - 1e-12 for r in res.rows)

    def test_non_nested_sizes_skip_chain_columns(self):
        res = run_converge("interval", [3, 4], seed=0)
        assert all(r.get("chain_flatness") is None for r in res.rows)

    def test_sizes_must_ascend(self):
        with pytest.raises(QhmError):
            run_converge("interval", [5, 3], seed=0)
        with pytest.raises(QhmError):
            run_converge("interval", [3, 3], seed=0)

    @pytest.mark.parametrize("family", ["interval", "circle", "ball3"])
    @pytest.mark.parametrize("sizes", [[5, 3], [3, 3], [], [11.5, 21]])
    def test_bad_sizes_are_invalid_input(self, family, sizes):
        with pytest.raises(InvalidInputError):
            run_converge(family, sizes, seed=0)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            run_converge("torus", [3], seed=0)

    @pytest.mark.parametrize("argv, first_keys", [
        (["converge", "--family", "circle", "--sizes", "4,8"],
         ["k", "n", "error", "status", "m_value", "resid_flatness",
          "i_uniform", "elapsed_s", "chain_flatness", "chain_step"]),
        (["glue-diverge", "--sizes", "11,21"],
         ["k", "n", "error", "verdict", "m_component", "m_glued",
          "predicted", "rel_err", "elapsed_s"]),
        (["equal-glue-demo", "--n", "3"],
         ["k", "kind", "error", "n", "status", "m_value", "verdict", "ok",
          "elapsed_s"]),
    ], ids=["converge", "glue-diverge", "equal-glue-demo"])
    def test_deterministic_bytes(self, capsys, argv, first_keys):
        # two runs give the same CSV bytes apart from elapsed_s, and
        # `--format json` prints every row's keys in the same order
        texts, keys = [], []
        for _ in range(2):
            assert main(["--seed", "1", *argv]) == 0
            texts.append(_strip_elapsed(capsys.readouterr().out))
            assert main(["--seed", "1", "--format", "json", *argv]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            keys.append([list(row) for row in rows])
        assert texts[0] == texts[1]
        assert keys[0] == keys[1] and keys[0][0] == first_keys


@pytest.mark.parametrize("run, calls", [
    (lambda: run_converge("ball3", [51, 101, 201]), 3),
    (lambda: run_glue_diverge([51, 101]), 4),
], ids=["converge", "glue-diverge"])
def test_every_decision_reads_the_module_name(monkeypatch, run, calls):
    # the ball-sweep benchmark times decisions by replacing
    # qhm.experiments.m_constant; a reference bound earlier would hide them
    seen = []

    def counted(space, *args, **kwargs):
        seen.append(space.n)
        return m_constant(space, *args, **kwargs)

    monkeypatch.setattr(qhm.experiments, "m_constant", counted)
    run()
    assert len(seen) == calls


class TestBallChain:
    def test_nested_and_sized(self):
        master, chains, spaces = ball_chain([11, 26, 51])
        prev = set()
        for ix, sub in zip(chains, spaces):
            s = set(ix)
            assert prev.issubset(s)
            prev = s
            assert sub.n == len(ix)
            assert 0 in s  # origin always included
        assert spaces[-1].n <= master.n

    @pytest.mark.parametrize("sizes, message", [
        ([7, 8], "sizes 7 and 8 give the same subspace: 1 per shell"),
        ([51, 53], "sizes 51 and 53 give the same subspace: 10 per shell"),
        ([-5, 3], "size -5 is below 6"),
        ([5, 51], "size 5 is below 6"),
        ([0], "size 0 is below 6"),
    ])
    def test_rejects_sizes_that_collapse(self, sizes, message):
        # [7, 8] and [-5, 3] used to give two identical 6-point subspaces
        with pytest.raises(InvalidInputError, match=message):
            ball_chain(sizes)

    @pytest.mark.parametrize("sizes", [[51, 11], [11, 11], []])
    def test_rejects_sizes_out_of_order(self, sizes):
        with pytest.raises(InvalidInputError):
            ball_chain(sizes)

    @pytest.mark.parametrize("sizes", [[11.5, 21], [11, 21.0], [True, 21]])
    def test_rejects_sizes_that_are_not_integers(self, sizes):
        # [11.5, 21] used to give subspaces of 11 and 21 points
        with pytest.raises(InvalidInputError, match="sizes must be integers"):
            ball_chain(sizes)

    def test_smallest_sizes(self):
        _, chains, spaces = ball_chain([6, 11, 16])
        assert [x.n for x in spaces] == [6, 11, 16]


class TestGlueDiverge:
    def test_predictions_match_and_grow(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_glue_diverge([11, 26, 51], seed=0)
        res.write_csv(out)
        glued = [r["m_glued"] for r in res.rows]
        assert all(r["verdict"] == "Strict" for r in res.rows)
        assert all(r["rel_err"] <= 1e-6 for r in res.rows)
        assert all(b > a for a, b in zip(glued, glued[1:]))
        assert out.read_text().startswith("k,n,m_component")

    def test_prediction_formula_column(self):
        res = run_glue_diverge([11, 21], seed=0)
        for r in res.rows:
            m = r["m_component"]
            assert r["predicted"] == pytest.approx((2.25 - m) / (2.0 - m))


class TestEqualGlueDemo:
    @pytest.mark.parametrize("n", [3, 5])
    def test_all_rows_ok(self, n):
        res = run_equal_glue_demo(n)
        assert len(res.rows) == 2 * n + 2
        assert all(r["ok"] for r in res.rows)
        sizes = [r["n"] for r in res.rows]
        assert sizes == sorted(sizes)
        glued = res.rows[-1]
        assert glued["verdict"] == "NonStrict"
        assert glued["m_value"] == pytest.approx(res.metadata["component_m"])

    def test_polygon_minimum(self):
        with pytest.raises(InvalidInputError, match="at least 3 polygon"):
            run_equal_glue_demo(2)

    @pytest.mark.parametrize("n", [3.5, True])
    def test_polygon_count_is_an_integer(self, n):
        # 3.5 used to raise a bare TypeError
        with pytest.raises(InvalidInputError, match="as an integer"):
            run_equal_glue_demo(n)


class TestCsvFormat:
    def test_cell_encodings(self, tmp_path):
        res = run_converge("interval", [2, 3], seed=0)
        text = res.to_csv_text()
        lines = text.split("\n")
        assert lines[0] == "k,n,status,m_value,i_uniform,resid_flatness," \
                           "chain_flatness,chain_step,elapsed_s,error"
        # '.' decimal separator, no locale surprises
        assert "," not in lines[1].split(",")[3] and "." in lines[1].split(",")[3]

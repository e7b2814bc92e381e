import csv

import numpy as np
import pytest

from mteq import cli, fixture, tensorio
from mteq.problems import gen_problem3


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestRepSeed:
    def test_stable(self):
        assert cli.rep_seed(0, "1", 10, 3) == cli.rep_seed(0, "1", 10, 3)

    def test_distinct_across_reps_and_problems(self):
        seeds = {cli.rep_seed(0, "1", 10, r) for r in range(100)}
        assert len(seeds) == 100
        assert cli.rep_seed(0, "1", 10, 0) != cli.rep_seed(0, "2", 10, 0)
        assert cli.rep_seed(0, "1", 10, 0) != cli.rep_seed(1, "1", 10, 0)

    def test_nonnegative(self):
        assert all(cli.rep_seed(s, "4", 7, r) >= 0 for s in range(5) for r in range(5))


class TestGen:
    def test_writes_instance_files(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        code, out = run(["gen", "--problem", "3", "--n", "5", "--out", str(prefix)], capsys)
        assert code == 0
        T = tensorio.read_tensor(f"{prefix}.tensor.json")
        b = tensorio.read_vector(f"{prefix}.rhs.txt")
        ref = gen_problem3(5)
        np.testing.assert_array_equal(T.array, ref.tensor.array)
        np.testing.assert_array_equal(b, ref.rhs)

    def test_fixture_metadata_includes_solutions(self, tmp_path, capsys):
        prefix = tmp_path / "fx"
        code, _ = run(["gen", "--problem", "ex22", "--out", str(prefix)], capsys)
        assert code == 0
        import json

        meta = json.loads((tmp_path / "fx.meta.json").read_text())
        assert meta["known_solutions"] == [[1.0, 2.0], [2.0, 2.0]]


class TestSolve:
    def test_converged_exit_zero(self, capsys):
        code, out = run(["solve", "--problem", "ex22", "--x0", "1.5,2"], capsys)
        assert code == 0
        assert "status: Converged" in out
        sol = [float(t) for t in out.splitlines()[-1].split()[1:]]
        np.testing.assert_allclose(sol, [2.0, 2.0], atol=1e-6)

    def test_max_iter_exit_code(self, capsys):
        code, out = run(
            ["solve", "--problem", "1", "--n", "6", "--max-iter", "2"], capsys
        )
        assert code == 3
        assert "MaxIterReached" in out

    def test_negative_power_exit_code(self, capsys, tmp_path):
        inst = fixture("ex21")
        tensorio.write_tensor(tmp_path / "t.json", inst.tensor)
        tensorio.write_vector(tmp_path / "b.txt", inst.rhs)
        code, out = run(
            ["solve", "--tensor", str(tmp_path / "t.json"), "--rhs", str(tmp_path / "b.txt")],
            capsys,
        )
        assert code == 4
        assert "NegativePowerRHS" in out

    def test_solution_and_trace_files(self, tmp_path, capsys):
        sol_path, trace_path = tmp_path / "x.txt", tmp_path / "trace.csv"
        code, _ = run(
            [
                "solve", "--problem", "ex22", "--x0", "1.5,2",
                "--solution", str(sol_path), "--trace", str(trace_path),
            ],
            capsys,
        )
        assert code == 0
        np.testing.assert_allclose(tensorio.read_vector(sol_path), [2.0, 2.0], atol=1e-6)
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "k", "res2", "resinf", "mono_violation", "eps_fallback", "ms", "feas_violation"
        }

    def test_file_round_trip_matches_generated(self, tmp_path, capsys):
        run(["gen", "--problem", "1", "--n", "6", "--seed", "5", "--out", str(tmp_path / "p")], capsys)
        code_f, out_f = run(
            ["solve", "--tensor", str(tmp_path / "p.tensor.json"), "--rhs", str(tmp_path / "p.rhs.txt")],
            capsys,
        )
        code_g, out_g = run(["solve", "--problem", "1", "--n", "6", "--seed", "5"], capsys)
        assert code_f == code_g == 0
        assert out_f.splitlines()[-1] == out_g.splitlines()[-1]

    def test_unknown_problem_is_parse_error(self, capsys):
        code, _ = run(["solve", "--problem", "99"], capsys)
        assert code == 65

    @pytest.mark.parametrize("text", ["1e-3", ".001", "1E-3"])
    def test_x0_number_in_any_float_form(self, text, capsys):
        code, out = run(["solve", "--problem", "1", "--n", "6", "--x0", text, "--max-iter", "1"], capsys)
        assert code == 3
        assert "iterations: 1" in out

    @pytest.mark.parametrize("text", ["2", "2.", "+2", "20e-1"])
    def test_x0_number_fills_every_entry(self, text, capsys):
        # (2, 2) solves ex22, so a start there needs no iteration
        code, out = run(["solve", "--problem", "ex22", "--x0", text], capsys)
        assert code == 0
        assert "iterations: 0" in out

    @pytest.mark.parametrize("text", ["-1", "-0.5", "nan", "inf"])
    def test_x0_invalid_number_is_parse_error(self, text, capsys):
        code = cli.main(["solve", "--problem", "ex22", "--x0", text])
        err = capsys.readouterr().err
        assert code == 65
        assert "x0 must be" in err

    def test_x0_vector_file(self, tmp_path, capsys):
        tensorio.write_vector(tmp_path / "x0.txt", [2.0, 2.0])
        code, out = run(["solve", "--problem", "ex22", "--x0", str(tmp_path / "x0.txt")], capsys)
        assert code == 0
        assert "iterations: 0" in out

    def test_x0_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read x0 file"):
            cli.main(["solve", "--problem", "ex22", "--x0", str(tmp_path / "nope.txt")])


class TestAnalyze:
    def test_fields_for_m_tensor(self, capsys):
        code, out = run(["analyze", "--problem", "1", "--n", "6"], capsys)
        assert code == 0
        assert "z_tensor: True" in out
        assert "verdict: StrongByRowSum" in out
        assert "existence:" in out and "majorization_cond_estimate:" in out

    def test_non_z_tensor(self, capsys):
        code, out = run(["analyze", "--problem", "ex11"], capsys)
        assert code == 0
        assert "z_tensor: False" in out
        assert "verdict" not in out

    def test_power_flag_adds_estimate(self, capsys):
        _, out = run(["analyze", "--problem", "2", "--n", "4", "--power"], capsys)
        assert "power_estimate:" in out


class TestBench:
    def bench_args(self, csv_path):
        return [
            "bench", "--problem", "1", "--n", "6", "--reps", "3",
            "--alpha", "0.5", "1.0", "--method", "smeqm", "anewton",
            "--csv", str(csv_path),
        ]

    def test_csv_header_and_shape(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, out = run(self.bench_args(path), capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == cli.BENCH_CSV_HEADER
        assert len(lines) == 1 + 3 * 2 * 2  # reps x alphas x methods
        assert "mean_iter" in out

    def test_deterministic_modulo_time(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.bench_args(p1), capsys)
        run(self.bench_args(p2), capsys)

        def strip_ms(path):
            with open(path) as fh:
                return [
                    {k: v for k, v in row.items() if k != "ms"}
                    for row in csv.DictReader(fh)
                ]

        assert strip_ms(p1) == strip_ms(p2)

    def test_instances_shared_across_alpha(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        run(self.bench_args(path), capsys)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        seeds_by_alpha = {}
        for row in rows:
            seeds_by_alpha.setdefault(row["alpha"], set()).add(row["seed"])
        groups = list(seeds_by_alpha.values())
        assert all(g == groups[0] for g in groups)

    def test_all_runs_converge(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        run(self.bench_args(path), capsys)
        with open(path) as fh:
            for row in csv.DictReader(fh):
                assert row["status"] == "Converged"
                assert float(row["res2_scaled"]) <= 1e-8


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_method_choices_enforced(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["solve", "--problem", "1", "--method", "cg"])

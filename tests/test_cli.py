import csv
import json
import re

import numpy as np
import pytest

from mteq import DenseTensor, SolveConfig, cli, fixture, solve, structure, tensorio
from mteq.solvers import METHODS
from mteq.problems import gen_problem1, gen_problem3
from reference import dense_array, forbid_n_by_n_zeros


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

    @pytest.mark.parametrize("args, value", [
        ((0, "1", 10, 0), 4730650220223680962),
        ((7, "1", 40, 0), 6164040071095750097),
        ((0, "4", 7, 3), 1985760406903660698),
        ((0, "ex22", 2, 1), 192583469245762436),
    ])
    def test_pinned_values(self, args, value):
        # the systems `mteq bench` draws: a change of hash or key changes them all
        assert cli.rep_seed(*args) == value


class TestGen:
    def test_writes_instance_files(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        code, out = run(["gen", "--problem", "3", "--n", "5", "--out", str(prefix)], capsys)
        assert code == 0
        T = tensorio.read_tensor(f"{prefix}.tensor.json")
        b = tensorio.read_vector(f"{prefix}.rhs.txt")
        ref = gen_problem3(5)
        np.testing.assert_array_equal(dense_array(T), dense_array(ref.tensor))
        np.testing.assert_array_equal(b, ref.rhs)

    def test_fixture_metadata_includes_solutions(self, tmp_path, capsys):
        prefix = tmp_path / "fx"
        code, _ = run(["gen", "--problem", "ex22", "--out", str(prefix)], capsys)
        assert code == 0
        import json

        meta = json.loads((tmp_path / "fx.meta.json").read_text())
        assert meta["known_solutions"] == [[1.0, 2.0], [2.0, 2.0]]
        assert "scale" not in meta

    @pytest.mark.parametrize(
        "problem, prefix", [("3", "p3_n5"), ("ex21", "ex21_n2"), ("1", "p1_n5_s0")]
    )
    def test_default_prefix_names_seed_only_when_set(self, problem, prefix, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _ = run(["gen", "--problem", problem, "--n", "5"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{prefix}.meta.json", f"{prefix}.rhs.txt", f"{prefix}.tensor.json"
        ]


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

    def test_non_finite_exit_code(self, capsys):
        code, out = run(
            ["solve", "--problem", "4", "--n", "3", "--seed", "1",
             "--method", "jacobi", "--alpha", "2"],
            capsys,
        )
        assert code == 7
        assert "status: NonFinite" in out

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

    def test_zero_iterations_print_start_residual(self, capsys):
        code, out = run(["solve", "--problem", "ex22", "--x0", "2,2"], capsys)
        assert code == 0
        assert "iterations: 0" in out
        assert "residual (scaled 2-norm): 0.000000e+00" in out
        assert "residual (unscaled 2-norm): 0.000000e+00" in out
        assert "backward error (componentwise): 0.000000e+00" in out

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

    def test_x0_missing_file(self, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "ex22", "--x0", str(tmp_path / "nope.txt")])
        assert code == 65
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(["--tensor", "t.json"], "--tensor requires --rhs"),
         ([], "either --tensor/--rhs or --problem must be given"),
         (["--rhs", "b.txt"], "--rhs requires --tensor"),
         (["--problem", "1", "--rhs", "b.txt"], "not both"),
         (["--problem", "1", "--tensor", "t.json", "--rhs", "b.txt"], "not both")],
        ids=["tensor-without-rhs", "no-system", "rhs-without-tensor", "problem-and-rhs",
             "problem-and-tensor"],
    )
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_missing_system_is_parse_error(self, command, argv, message, capsys):
        code = cli.main([command, *argv])
        assert code == 65
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_rhs_length_mismatch_is_parse_error(self, command, tmp_path, capsys):
        tensorio.write_tensor(tmp_path / "ex22.tensor.json", fixture("ex22").tensor)
        tensorio.write_vector(tmp_path / "b3.txt", np.ones(3))
        code = cli.main([command, "--tensor", str(tmp_path / "ex22.tensor.json"),
                         "--rhs", str(tmp_path / "b3.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == "error: rhs has 3 entries, but the tensor has dim 2\n"

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_non_integer_order_is_parse_error(self, command, tmp_path, capsys):
        # int() would read this file as order 3, dim 2
        doc = '{"order": 3.7, "dim": 2.5, "entries": [[1, 1, 1, 1.0], [2, 2, 2, 1.0]]}'
        (tmp_path / "t.json").write_text(doc)
        tensorio.write_vector(tmp_path / "b.txt", np.ones(2))
        code = cli.main([command, "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == "error: tensor 'order' must be an integer, got 3.7\n"

    BIG = "1" + "0" * 399  # a 400-digit integer, past the float range

    @pytest.mark.parametrize(
        "doc",
        ["[1, 2]", '{"order": 2, "dim": 2, "entries": 5}', '{"order": 2, "dim": 2, "entries": [5]}',
         '{"order": 2, "dim": 2, "entries": [[1, {}, 1.0]]}',
         # numpy would read "2" as 2.0 and true as 1, and the system would solve
         '{"order": 2, "dim": 2, "entries": [[1, 1, "2"], [2, 2, 1.0]]}',
         '{"order": 2, "dim": 2, "entries": [[1, 1, 1.0], [2, 2, true]]}',
         '{"order": 2, "dim": 2, "entries": [[1, 1, 1.0], [2, 2, null]]}',
         '{"order": 2, "dim": 2, "entries": [[1, 1, 1.0], [2, %s, 1.0]]}' % BIG,
         '{"order": 2, "dim": 2, "entries": [[1, 1, 1.0], [2, 2, %s]]}' % BIG,
         '{"order": 2, "dim": %s, "entries": [[1, 1, 1.0], [2, 2, 1.0]]}' % BIG,
         "[" * 100_000 + "]" * 100_000],
        ids=["list", "entries-int", "record-int", "record-object",
             "field-string", "field-true", "field-null",
             "index-400-digits", "value-400-digits", "dim-400-digits", "nested-100000"],
    )
    def test_malformed_tensor_file_is_parse_error(self, doc, tmp_path, capsys):
        (tmp_path / "t.json").write_text(doc)
        tensorio.write_vector(tmp_path / "b.txt", np.ones(2))
        code = cli.main(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err.startswith("error: malformed tensor file: ")
        assert captured.err.count("\n") == 1

    def test_undecodable_json_keeps_its_message(self, tmp_path, capsys):
        (tmp_path / "t.json").write_text("not json")
        tensorio.write_vector(tmp_path / "b.txt", np.ones(2))
        code = cli.main(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        assert code == 65
        assert capsys.readouterr().err == "error: Expecting value: line 1 column 1 (char 0)\n"

    @pytest.mark.parametrize("key", ["order", "dim", "entries"])
    def test_missing_key_is_named(self, key, tmp_path, capsys):
        doc = {"order": 3, "dim": 2, "entries": [[1, 1, 1, 1.0], [2, 2, 2, 1.0]]}
        del doc[key]
        (tmp_path / "t.json").write_text(json.dumps(doc))
        tensorio.write_vector(tmp_path / "b.txt", np.ones(2))
        code = cli.main(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == f"error: malformed tensor file: missing key '{key}'\n"

    def test_dimension_zero_is_parse_error(self, tmp_path, capsys):
        (tmp_path / "t.json").write_text('{"order": 3, "dim": 0, "entries": []}')
        (tmp_path / "b.txt").write_text("")
        code = cli.main(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == "error: tensor dimension must be positive\n"

    # Python's json reads all three as floats: NaN, inf and inf.
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    def test_non_finite_tensor_entry_is_parse_error(self, value, tmp_path, capsys):
        doc = '{"order": 2, "dim": 2, "entries": [[1, 1, 1.0], [2, 2, %s]]}' % value
        (tmp_path / "t.json").write_text(doc)
        tensorio.write_vector(tmp_path / "b.txt", np.ones(2))
        code = cli.main(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert captured.err == "error: tensor entries must be finite\n"

    def test_zero_diagonal_splitting_exits_singular(self, tmp_path, capsys):
        T = DenseTensor(np.array([[0.0, -1.0], [-1.0, 2.0]]))
        tensorio.write_tensor(tmp_path / "t.json", T)
        tensorio.write_vector(tmp_path / "b.txt", [1.0, 1.0])
        code, out = run(["solve", "--tensor", str(tmp_path / "t.json"),
                         "--rhs", str(tmp_path / "b.txt"), "--method", "jacobi"], capsys)
        assert code == 5
        assert "status: SingularMatrix" in out and "iterations: 0" in out

    def test_unscaled_residual_is_scaled_times_scale_factor(self, capsys):
        code, out = run(["solve", "--problem", "1", "--n", "6", "--seed", "4"], capsys)
        assert code == 0
        inst = gen_problem1(6, 4)
        ref = solve(inst.tensor, inst.rhs, None, SolveConfig())
        res2 = ref.trace.res2[-1]
        assert ref.scale_factor != 1.0
        assert f"residual (scaled 2-norm): {res2:.6e}" in out
        assert f"residual (unscaled 2-norm): {res2 * ref.scale_factor:.6e}" in out
        assert f"backward error (componentwise): {ref.omega:.6e}" in out

    @pytest.mark.parametrize("scale", [[], ["--no-scale"]])
    def test_non_finite_rhs_is_parse_error(self, scale, tmp_path, capsys):
        inst = gen_problem3(10)
        rhs = inst.rhs.copy()
        rhs[0] = np.inf
        tensorio.write_tensor(tmp_path / "p3.tensor.json", inst.tensor)
        tensorio.write_vector(tmp_path / "p3.rhs.txt", rhs)
        code = cli.main(["solve", "--tensor", str(tmp_path / "p3.tensor.json"),
                         "--rhs", str(tmp_path / "p3.rhs.txt"), *scale])
        assert code == 65
        assert "b must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_parse_error(self, tol, capsys):
        code = cli.main(["solve", "--problem", "1", "--n", "6", "--tol", tol])
        assert code == 65
        assert "eta must be" in capsys.readouterr().err


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

    def test_z_tensor_question_asked_once(self, capsys, monkeypatch):
        # each is_z_tensor reads all n^m entries of a dense tensor
        calls = []
        is_z_tensor = structure.is_z_tensor
        monkeypatch.setattr(structure, "is_z_tensor", lambda T: calls.append(T) or is_z_tensor(T))
        code, out = run(["analyze", "--problem", "1", "--n", "4"], capsys)
        assert code == 0 and "z_tensor: True" in out
        assert len(calls) == 1

    def test_singular_majorization_reports_the_error(self, tmp_path, capsys):
        # M = [[1, 1], [1, 1]] has no inverse; the report goes on past it
        records = [[1, 1, 1, 1.0], [1, 2, 2, 1.0], [2, 1, 1, 1.0], [2, 2, 2, 1.0]]
        doc = {"order": 3, "dim": 2, "entries": records}
        (tmp_path / "t.json").write_text(json.dumps(doc))
        tensorio.write_vector(tmp_path / "b.txt", [1.0, 1.0])
        code, out = run(["analyze", "--tensor", str(tmp_path / "t.json"), "--rhs", str(tmp_path / "b.txt")],
                        capsys)
        assert code == 0
        lines = out.splitlines()
        existence = next(i for i, line in enumerate(lines) if line.startswith("existence:"))
        assert lines[existence] == "existence: error (majorization matrix is singular)"
        assert lines[existence + 1].startswith("majorization_cond_estimate: ")

    def test_problem3_at_scale_builds_no_n_by_n_array(self, monkeypatch, capsys):
        # P3's M is diagonal: the existence test divides by diagonal(T), and the
        # condition number is max|d| / min|d|, the value an SVD of M printed
        forbid_n_by_n_zeros(monkeypatch, 2000)
        code, out = run(["analyze", "--problem", "3", "--n", "2000"], capsys)
        assert code == 0
        assert out == ("z_tensor: True\ns: 2\nrow_sum_bound: 2\nverdict: Unknown\n"
                       "existence: NonnegativeExists\nmajorization_cond_estimate: 2\n")

    def test_power_flag_adds_estimate(self, capsys):
        _, out = run(["analyze", "--problem", "2", "--n", "4", "--power"], capsys)
        assert "power_estimate:" in out

    def test_non_finite_rhs_is_parse_error(self, tmp_path, capsys):
        inst = gen_problem3(10)
        rhs = inst.rhs.copy()
        rhs[0] = np.inf
        tensorio.write_tensor(tmp_path / "p3.tensor.json", inst.tensor)
        tensorio.write_vector(tmp_path / "p3.rhs.txt", rhs)
        code = cli.main(["analyze", "--tensor", str(tmp_path / "p3.tensor.json"),
                         "--rhs", str(tmp_path / "p3.rhs.txt")])
        captured = capsys.readouterr()
        assert code == 65
        assert "b must be finite" in captured.err
        assert "existence:" not in captured.out


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

    def test_rows_record_the_system_solved(self, tmp_path, capsys):
        # ex22 is 2-dimensional whatever --n asks for
        path = tmp_path / "e.csv"
        code, out = run(["bench", "--problem", "ex22", "--n", "10", "--reps", "1",
                         "--csv", str(path)], capsys)
        assert code == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["2"]
        assert out.splitlines()[1].split()[0] == "2"
        # a fixture takes no seed, so its row names none
        assert [row["seed"] for row in rows] == [""]

    @pytest.mark.parametrize("problem", ["1", "2", "3"])
    def test_seed_is_the_one_the_system_was_built_from(self, problem, tmp_path, capsys):
        # P1 is drawn from rep_seed, P2 always from seed 0, P3 from none
        path = tmp_path / "s.csv"
        run(["bench", "--problem", problem, "--n", "4", "--reps", "2", "--csv", str(path)], capsys)
        with open(path) as fh:
            seeds = [row["seed"] for row in csv.DictReader(fh)]
        expected = {"1": [str(cli.rep_seed(0, "1", 4, rep)) for rep in range(2)],
                    "2": ["0", "0"], "3": ["", ""]}
        assert seeds == expected[problem]

    def test_problem_spellings_draw_the_same_systems(self, tmp_path, capsys):
        # '1', 'p1' and 'P1' name one problem; the problem column keeps what was typed
        rows = {}
        for problem in ("1", "p1", "P1"):
            path = tmp_path / f"{problem}.csv"
            run(["bench", "--problem", problem, "--n", "5", "--reps", "2", "--csv", str(path)], capsys)
            with open(path) as fh:
                rows[problem] = list(csv.DictReader(fh))
        assert [row["problem"] for row in rows["P1"]] == ["P1", "P1"]

        def solved(problem):
            return [{k: v for k, v in row.items() if k not in ("problem", "ms")} for row in rows[problem]]

        assert solved("1") == solved("p1") == solved("P1")
        assert [row["seed"] for row in rows["P1"]] == [str(cli.rep_seed(0, "1", 5, rep)) for rep in range(2)]

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_is_parse_error(self, reps, capsys):
        code = cli.main(["bench", "--problem", "1", "--n", "6", "--reps", reps])
        captured = capsys.readouterr()
        assert code == 65
        assert "--reps must be at least 1" in captured.err
        assert "nan" not in captured.out

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

    def test_defaults_are_solve_config(self):
        parser = cli.build_parser()
        args = parser.parse_args(["solve", "--problem", "1"])
        cfg = cli._solve_config(args, method=args.method, alpha=args.alpha, scale=not args.no_scale)
        assert cfg == SolveConfig()
        args = parser.parse_args(["bench", "--problem", "1"])
        assert args.method == [SolveConfig().method] and args.alpha == [SolveConfig().alpha]
        assert cli._solve_config(args, method=args.method[0], alpha=args.alpha[0]) == SolveConfig()

    def test_every_method_is_a_choice(self):
        parser = cli.build_parser()
        for method in METHODS:
            assert parser.parse_args(["solve", "--problem", "1", "--method", method]).method == method
            assert parser.parse_args(["bench", "--problem", "1", "--method", method]).method == [method]

import csv
import json
import warnings

import pytest

from hlsp import bench
from hlsp.bench import TABLE_COLUMNS
from hlsp.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_METHOD,
    EXIT_OK,
    EXIT_SUB_CONVERGED,
    main,
    parse_level_specs,
)
from hlsp.config import METHODS, SolverConfig
from hlsp.fileio import save_problem
from hlsp.oracle import OracleInconclusive
from hlsp.problem import random_hlsp


@pytest.fixture
def problem_file(tmp_path):
    p = random_hlsp(5, 4, [(1, 2, 0, "feasible"), (1, 1, 0, "mixed")])
    path = tmp_path / "problem.json"
    save_problem(p, path)
    return path


BIG_EQUALITY_PROBLEM = {
    "n": 2,
    "levels": [
        {"A_e": [[1e150, 0]], "b_e": [1e150], "A_i": [], "b_i": []},
        {"A_e": [[1, 1]], "b_e": [0], "A_i": [], "b_i": []},
    ],
}

MASK_FIELDS = ("wall_time_s",)


def masked(report):
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: (0.0 if k in MASK_FIELDS else scrub(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(report)


# CI's rows-scaled-over-1e±6 problem
SCALED_PROBLEM = {
    "n": 4,
    "levels": [
        {
            "A_e": [], "b_e": [],
            "A_i": [
                [-8e5, -7e5, -1e6, 8e5],
                [8e-5, 7e-5, 1e-4, -8e-5],
                [1e-4, -5e-5, 2e-5, 3e-6],
                [-1e-5, 5e-6, -2e-6, -3e-7],
                [-1e5, -1e5, -3e5, -9e5],
            ],
            "b_i": [-1.0, 3.0, -0.1, 1.0, -0.4],
        },
        {
            "A_e": [], "b_e": [],
            "A_i": [[-2e4, 1e4, 2e4, 4e4], [2e-5, -1e-5, -2e-5, -4e-5]],
            "b_i": [0.01, 0.5],
        },
        {
            "A_e": [[0, 0, 0, 0]], "b_e": [0.7],
            "A_i": [[-0.006, -0.004, -0.008, 0.002]], "b_i": [-0.7],
        },
    ],
}


class TestSolveCommand:
    def test_happy_path(self, problem_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", str(problem_file), "--method", "nf-ipm", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert len(report["levels"]) == 2
        assert report["method"] == "nf-ipm"

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("method", ["nf-ipm", "oracle"])
    def test_unwritable_out_is_io_error(self, problem_file, tmp_path, capsys, method):
        out = tmp_path / "missing" / "dir" / "r.json"
        code = main(["solve", str(problem_file), "--method", method, "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    def test_unparseable_file_is_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{{")
        assert main(["solve", str(bad)]) == EXIT_INVALID

    def test_classical_fallback_status(self, tmp_path):
        p = random_hlsp(9, 5, [(2, 0, 0, "feasible"), (1, 0, 0, "feasible")])
        path = tmp_path / "p.json"
        save_problem(p, path)
        out = tmp_path / "r.json"
        code = main(["solve", str(path), "--method", "classical", "--out", str(out)])
        assert code == EXIT_METHOD
        report = json.loads(out.read_text())
        assert any(lv["method_fallback"] for lv in report["levels"])

    @pytest.mark.parametrize(
        "seed,n,specs",
        [
            (305473437, 4, [(2, 1, 0, "feasible"), (2, 2, 0, "mixed")]),
            (3201959, 6, [(1, 3, 0, "feasible"), (2, 2, 0, "infeasible")]),
        ],
    )
    def test_classical_runtime_fallback_status(self, tmp_path, seed, n, specs):
        # the quadratic term loses rank inside the Newton loop, not in the probe
        path = tmp_path / "p.json"
        save_problem(random_hlsp(seed, n, specs), path)
        out = tmp_path / "r.json"
        code = main(["solve", str(path), "--method", "classical", "--out", str(out)])
        assert code == EXIT_METHOD

    def test_classical_on_level_without_rows(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(
            '{"n": 3, "levels": [{"A_e": [], "b_e": [], "A_i": [], "b_i": []}, '
            '{"A_e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b_e": [0, 3, 1], '
            '"A_i": [], "b_i": []}]}'
        )
        out = tmp_path / "r.json"
        code = main(["solve", str(path), "--method", "classical", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [lv["method_fallback"] for lv in report["levels"]] == [False, False]

    def test_sub_converged_status(self, tmp_path):
        # a capped level that the active-set step cannot finish either:
        # level 1 of the scaled problem, whose rank decision drops two rows
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(SCALED_PROBLEM))
        code = main(["solve", str(path), "--method", "nf-ipm", "--max-iter", "1"])
        assert code == EXIT_SUB_CONVERGED

    def test_deterministic_reports_modulo_timing(self, problem_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["solve", str(problem_file), "--method", "ls-ipm", "--out", str(out1)])
        main(["solve", str(problem_file), "--method", "ls-ipm", "--out", str(out2)])
        r1 = masked(json.loads(out1.read_text()))
        r2 = masked(json.loads(out2.read_text()))
        assert r1 == r2

    def test_oracle_method(self, tmp_path):
        p = random_hlsp(2, 3, [(1, 1, 0, "mixed")])
        path = tmp_path / "p.json"
        save_problem(p, path)
        out = tmp_path / "oracle.json"
        code = main(["solve", str(path), "--method", "oracle", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["method"] == "oracle"
        assert len(report["objectives"]) == 1

    def test_oracle_on_rows_scaled_over_twelve_decades(self, tmp_path, capsys):
        # each level pairs rows of norm 1e6 or 1e4 with parallel rows of
        # norm 1e-4 or 1e-5; the pseudo-inverses' relative cutoffs and an
        # absolute slack test once left no feasible candidate (exit 5)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(SCALED_PROBLEM))
        assert main(["solve", str(path), "--method", "oracle"]) == EXIT_OK
        oracle = json.loads(capsys.readouterr().out)["objectives"]
        # each level's parallel pair conflicts: level 1 pays about 4.5 for
        # its 1e6 pair and min_y (y + 0.1)^2 + (0.1 y + 1)^2 over 2 for its
        # 1e-4 pair, level 2 about 0.125; level 3's zero row pays 0.7^2 / 2
        expected = [4.5 + (1.01 - 0.04 / 1.01) / 2, 0.125, 0.245]
        assert oracle == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("method", [*METHODS, "oracle"])
    def test_scaled_rows_raise_no_floating_point_warning(self, tmp_path, method):
        # rows scaled over 1e±6: the interior point's barrier weights span
        # many decades, and the -asm solve holds tight carried rows at a zero
        # slack; a leaked RuntimeWarning would turn into exit 5 under -W error
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(SCALED_PROBLEM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path), "--method", method])
        expected = {"classical": {EXIT_METHOD}, "oracle": {EXIT_OK}}
        assert code in expected.get(method, {EXIT_OK, EXIT_SUB_CONVERGED})

    @pytest.mark.parametrize("method", METHODS)
    def test_equality_only_overflow_keeps_its_report(self, tmp_path, capsys, method):
        # the 1e150 row overflows level 1's first KKT test, before any step;
        # the step solves both linear levels exactly, with no warning.
        # classical takes the normal form on each one-row level (exit 4)
        path = tmp_path / "big_eq.json"
        path.write_text(json.dumps(BIG_EQUALITY_PROBLEM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path), "--method", method])
        assert code == (EXIT_METHOD if method == "classical" else EXIT_OK)
        report = json.loads(capsys.readouterr().out)
        assert report["x"] == [1.0, -1.0]
        assert [lv["kkt_norm"] for lv in report["levels"]] == [0.0, 0.0]
        steps = 0 if method.endswith("-asm") else 1
        assert [lv["iterations"] for lv in report["levels"]] == [steps, steps]

    def test_inconclusive_oracle_is_invalid(self, problem_file, monkeypatch, capsys):
        def inconclusive(problem):
            raise OracleInconclusive("oracle found no feasible candidate")

        monkeypatch.setattr("hlsp.cli.brute_force_cascade", inconclusive)
        assert main(["solve", str(problem_file), "--method", "oracle"]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: oracle found no feasible candidate\n"

    def test_defaults_are_the_solver_config(self, problem_file, capsys):
        assert main(["solve", str(problem_file)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"] == SolverConfig().to_dict()

    def test_report_schema_stable(self, problem_file, tmp_path):
        out = tmp_path / "r.json"
        main(["solve", str(problem_file), "--method", "nf-ipm", "--out", str(out)])
        report = json.loads(out.read_text())
        expected_level_keys = {
            "level", "m_eq", "m_ineq", "m_inact", "n_r_before", "n_r_after",
            "rank_virtual", "rank_current", "iterations", "factorizations",
            "dual_evaluations", "asm_iterations", "kkt_norm", "sub_converged",
            "method_fallback", "v_star_norm", "objective", "fact_shapes",
            "wall_time_s",
        }
        assert set(report["levels"][0]) == expected_level_keys

    @pytest.mark.parametrize(
        "data,message",
        [
            (
                {"n": 2, "levels": [{"A_e": [["one", 0.0]], "b_e": [1.0], "A_i": [], "b_i": []}]},
                "non-numeric entry",
            ),
            ({"n": 2, "levels": 5}, "levels must be a list"),
            (
                {"n": True, "levels": [{"A_e": [[1.0]], "b_e": [1.0], "A_i": [], "b_i": []}]},
                "n must be a positive integer",
            ),
            (
                {"n": 2, "levels": [{"A_e": [1.0, 0.0], "b_e": [1.0], "A_i": [], "b_i": []}]},
                "row 0: expected a list",
            ),
            (
                {"n": 2, "levels": [{"A_e": [[1.0, 0.0]], "b_e": 1.0, "A_i": [], "b_i": []}]},
                "rhs: expected a list",
            ),
            (None, ""),
            ({"n": 2}, "missing problem fields: ['levels']"),
            ({"n": 2, "levels": [[]]}, "level 1 must be an object"),
            ({"n": 2, "levels": [{"A_e": [], "b_e": []}]}, "missing fields ['A_i', 'b_i']"),
            (
                {"n": 2, "levels": [{"A_e": 5, "b_e": [], "A_i": [], "b_i": []}]},
                "expected a list of rows",
            ),
            (
                {"n": 2, "levels": [{"A_e": [[1.0, 0.0]], "b_e": [1.0, 2.0], "A_i": [], "b_i": []}]},
                "1 matrix rows but 2 rhs entries",
            ),
            ({"n": 2, "levels": []}, "at least one level"),
            (
                # an integer beyond the largest float: OverflowError in float()
                {"n": 2, "levels": [{"A_e": [[10**400, 0]], "b_e": [1], "A_i": [], "b_i": []}]},
                "too large to convert to float",
            ),
        ],
        ids=[
            "string-entry",
            "levels-not-list",
            "bool-n",
            "row-not-list",
            "rhs-not-list",
            "directory",
            "missing-problem-field",
            "level-not-object",
            "missing-level-field",
            "rows-not-list",
            "row-rhs-count-mismatch",
            "no-levels",
            "integer-beyond-float",
        ],
    )
    def test_malformed_input_exit_codes(self, tmp_path, capsys, data, message):
        path = tmp_path / "problem.json"
        if data is None:
            path.mkdir()
            expected = EXIT_IO
        else:
            path.write_text(json.dumps(data))
            expected = EXIT_INVALID
        assert main(["solve", str(path)]) == expected
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "nf-ipm-asm", "classical"])
    def test_non_finite_problem_is_invalid(self, tmp_path, method):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"n": 2, "levels": [{"A_e": [[NaN, 1.0]], "b_e": [1.0], '
            '"A_i": [[1.0, 0.0]], "b_i": [Infinity]}]}'
        )
        assert main(["solve", str(path), "--method", method]) == EXIT_INVALID


    @pytest.mark.parametrize(
        "method,flag,value",
        [
            ("nf-ipm", "--eps", "-1"),
            ("nf-ipm", "--xi", "-1"),
            ("nf-ipm", "--max-iter", "-3"),
            ("ls-ipm", "--tau", "1.5"),
            ("ls-ipm", "--tau", "nan"),
            ("nf-ipm", "--tau", "-1"),
            ("classical", "--tau", "-1"),
        ],
    )
    def test_out_of_range_setting_is_invalid(
        self, problem_file, capsys, method, flag, value
    ):
        argv = ["solve", str(problem_file), "--method", method, flag, value]
        if flag in ("--tau", "--xi"):
            # the step cap and the activation threshold are the constants
            # newton.TAU and cascade.XI: the parser rejects the flag
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_INVALID
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
            return
        code = main(argv)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_step_cap_is_not_a_flag(self, problem_file, capsys):
        # the corrector's step cap is the constant newton.TAU, and the
        # activation threshold the constant cascade.XI
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == EXIT_OK
        help_text = capsys.readouterr().out
        assert "--tau" not in help_text and "--xi" not in help_text
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(problem_file), "--tau", "0.5"])
        assert exc.value.code == EXIT_INVALID


class TestGenCommand:
    def test_gen_then_solve(self, tmp_path):
        path = tmp_path / "gen.json"
        code = main([
            "gen", "--seed", "7", "--n", "4",
            "--levels", "2,1,0,feasible;0,2,0,mixed", "--out", str(path),
        ])
        assert code == EXIT_OK
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) in (
            EXIT_OK,
            EXIT_SUB_CONVERGED,
        )

    def test_gen_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["gen", "--seed", "3", "--n", "3", "--levels", "1,1,0,feasible"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_bad_level_spec(self, tmp_path):
        code = main([
            "gen", "--seed", "1", "--n", "3", "--levels", "1,2,0",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_INVALID

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        code = main([
            "gen", "--seed", "1", "--n", "3", "--levels", "1,1,0,feasible",
            "--out", str(tmp_path / "missing" / "dir" / "p.json"),
        ])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_parse_level_specs(self):
        specs = parse_level_specs("1,2,0,feasible; 0,4,0,infeasible")
        assert specs == [(1, 2, 0, "feasible"), (0, 4, 0, "infeasible")]
        with pytest.raises(ValueError):
            parse_level_specs("")


class TestBenchCommand:
    def test_small_suite(self, tmp_path):
        spec = {
            "seeds": [0, 1],
            "methods": ["nf-ipm", "ls-ipm"],
            "repeats": 1,
            "instances": [{"n": 4, "levels": [[1, 2, 0, "feasible"]]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "table.csv"
        code = main(["bench", str(spec_path), "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 seeds x 2 methods
        assert list(rows[0]) == TABLE_COLUMNS
        summary = json.loads((tmp_path / "table.csv.summary.json").read_text())
        assert "time_ratios" in summary and "nf-ipm/ls-ipm" in summary["time_ratios"]

    def test_sweep_included(self, tmp_path):
        spec = {
            "seeds": [],
            "methods": ["ls-ipm"],
            "repeats": 1,
            "instances": [],
            "equality_sweep": {"n": 8, "m2": 8, "step": 4},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "table.csv"
        assert main(["bench", str(spec_path), "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        names = [r["instance"] for r in rows]
        assert names == ["sweep_m1e=0", "sweep_m1e=4", "sweep_m1e=8"]
        # full consumption of variables on the first level leaves none
        full = [r for r in rows if r["instance"] == "sweep_m1e=8"][0]
        assert full["n_r_per_level"].split(";")[0] == "0"
        # one iteration per nonempty equality-only level: the empty first
        # level and the skipped second level contribute none
        totals = {r["instance"]: int(r["iterations"]) for r in rows}
        assert totals == {"sweep_m1e=0": 1, "sweep_m1e=4": 2, "sweep_m1e=8": 1}

    def test_sequential_reference_rows(self, tmp_path):
        spec = {
            "seeds": [0],
            "methods": ["nf-ipm", "lexicographic"],
            "repeats": 2,
            "instances": [
                {"n": 6, "levels": [[2, 0, 1, "feasible"], [6, 0, 0, "feasible"]]}
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "table.csv"
        assert main(["bench", str(spec_path), "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == TABLE_COLUMNS
        ref = [r for r in rows if r["method"] == "lexicographic"]
        assert len(ref) == 1 and float(ref[0]["time_s"]) > 0.0
        counts = ("iterations", "factorizations", "dual_evaluations", "fact_work")
        assert all(ref[0][c] == "0" for c in counts) and ref[0]["converged"] == "True"
        summary = json.loads((tmp_path / "table.csv.summary.json").read_text())
        assert "nf-ipm/lexicographic" in summary["time_ratios"]

    @pytest.mark.parametrize("method", ["nf-ipm", "lexicographic"])
    def test_one_untimed_solve_before_the_repeats(self, monkeypatch, method):
        calls = []
        for name in ("solve_hlsp", "lexicographic_lsq_equality"):
            real = getattr(bench, name)

            def counted(*args, real=real, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(bench, name, counted)
        spec = {
            "seeds": [0, 1],
            "methods": [method],
            "repeats": 3,
            "instances": [{"n": 6, "levels": [[2, 0, 1, "feasible"], [6, 0, 0, "feasible"]]}],
        }
        rows, _ = bench.run_benchmark(spec)
        assert len(rows) == 2 and len(calls) == 2 * (3 + 1)

    def test_bad_spec_file(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("nope{")
        assert main(["bench", str(bad), "--out", str(tmp_path / "t.csv")]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "change",
        [
            {"config": {"foo": 1}},
            {"instances": [{"n": 4}]},
            {"instances": [[4, [[1, 2, 0, "feasible"]]]]},
            {"instances": [{"n": 4, "levels": 5}]},
            {"instances": [{"n": 4, "levels": [["1", 2, 0, "feasible"]]}]},
            {"seeds": 3},
            {"repeats": None},
            {"repeats": 0},
            {"repeats": -2},
            {"repeats": True},
            {"equality_sweep": {"n": 4, "seed": "x"}},
            {"config": {"density_threshold": 0.4}},
            {"config": {"rank_tol": 1e-6}},
            {"config": {"tau": 0.999}},
            {"config": {"asm_max_iter": 200}},
            {"config": {"xi": 1e-8}},
            {"config": {"max_iter": True}},
            {"seeds": [True], "instances": [{"n": 4, "levels": [[1, 1, 0, "mixed"]]}]},
            {"seeds": [0.5], "instances": [{"n": 4, "levels": [[1, 1, 0, "mixed"]]}]},
            {"instances": [{"n": True, "levels": [[1, 0, 0, "feasible"]]}]},
            {"instances": [{"n": 3.7, "levels": [[1, 1, 0, "mixed"]]}]},
            {"instances": [{"n": 4, "levels": [[True, 1, 0, "mixed"]]}]},
            {"instances": [{"n": 4, "levels": [[1, 1.5, 0, "mixed"]]}]},
            {"equality_sweep": {"n": True, "m2": True, "step": True}},
            {"equality_sweep": {"n": 4, "m2": 2.5}},
            {"equality_sweep": {"n": 4, "step": 0}},
            {
                "methods": ["nf-ipm", "lexicographic"],
                "instances": [{"n": 4, "levels": [[1, 1, 0, "mixed"]]}],
            },
        ],
        ids=[
            "unknown-config",
            "no-levels",
            "instance-not-object",
            "levels-not-list",
            "string-row-count",
            "seeds-not-list",
            "null-repeats",
            "zero-repeats",
            "negative-repeats",
            "bool-repeats",
            "string-sweep-seed",
            "removed-density-threshold",
            "removed-rank-tol",
            "removed-tau",
            "removed-asm-max-iter",
            "removed-xi",
            "bool-max-iter",
            "bool-seed",
            "fraction-seed",
            "bool-n",
            "fraction-n",
            "bool-row-count",
            "fraction-row-count",
            "bool-sweep",
            "fraction-sweep-m2",
            "zero-sweep-step",
            "reference-with-inequalities",
        ],
    )
    def test_spec_errors_are_invalid(self, tmp_path, capsys, change):
        spec = {"methods": ["nf-ipm"], "repeats": 1, "instances": []}
        spec.update(change)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "t.csv"
        assert main(["bench", str(spec_path), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_spec_directory_is_io_error(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["bench", str(tmp_path), "--out", str(out)]) == EXIT_IO

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        spec = {"methods": ["nf-ipm"], "repeats": 1,
                "instances": [{"n": 4, "levels": [[1, 1, 0, "mixed"]]}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "missing" / "dir" / "t.csv"
        assert main(["bench", str(spec_path), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")


def raise_(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestInternalErrors:
    @pytest.fixture
    def bench_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"methods": ["nf-ipm"], "instances": []}))
        return spec_path

    def test_solve_error_is_one_line_and_exit_5(self, problem_file, monkeypatch, capsys):
        monkeypatch.setattr("hlsp.cli.solve_hlsp", raise_(RuntimeError("boom\nagain")))
        assert main(["solve", str(problem_file)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: RuntimeError: boom again\n"
        assert "Traceback" not in err

    def test_bench_error_is_exit_5(self, bench_spec, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("hlsp.cli.run_benchmark", raise_(RuntimeError("boom")))
        code = main(["bench", str(bench_spec), "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: RuntimeError: boom\n"
        assert "Traceback" not in err

    def test_usage_error_and_interrupt_pass_through(self, problem_file, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
        monkeypatch.setattr("hlsp.cli.solve_hlsp", raise_(KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            main(["solve", str(problem_file)])

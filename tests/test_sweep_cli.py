import argparse
import csv
import json

import numpy as np
import pytest

from specmix import (ClusteringResult, ConfigError, ExperimentGrid,
                     KMeansConfig, SpecMixConfig, SyntheticParams,
                     generate_synthetic, run_sweep)
from specmix.cli import _build_parser, main
from specmix.sweep import (METHODS, RESULT_COLUMNS, derive_seed, run_method,
                           sidecar_paths)

SMALL_GRID = """\
# tiny smoke grid
n = 36
K = 2
Q = 2
sigma = 0.5
p = 0.1
lambda = 0, 50
methods = specmix, onlycat, kmodes
reps = 2
seed = 7
"""


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestGrid:
    def test_parse(self):
        grid = ExperimentGrid.from_text(SMALL_GRID)
        assert grid.n_values == (36,)
        assert grid.lambda_values == (0.0, 50.0)
        assert grid.methods == ("specmix", "onlycat", "kmodes")
        assert grid.repetitions == 2
        assert grid.seed == 7

    def test_lambda_axis_only_for_specmix(self):
        grid = ExperimentGrid.from_text(SMALL_GRID)
        keys = grid.row_keys()
        # specmix expands over both lambdas, the others get one row per cell
        assert len(keys) == (2 + 1 + 1) * 2
        methods = [(key.method, key.lam) for key in keys]
        assert ("specmix", "0") in methods and ("specmix", "50") in methods
        assert ("onlycat", "1") in methods
        assert ("kmodes", "0") in methods

    def test_single_cell_single_rep(self):
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(1,),
                              sigma_values=(0.0,), p_values=(0.0,),
                              lambda_values=(1.0,), methods=("onlycat",),
                              repetitions=1, seed=0)
        assert len(grid.row_keys()) == 1

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_text("n = 10\nK = 2\nmethods = magic\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentGrid.from_text("n = 10\nK = 2\nbananas = 3\n")

    @pytest.mark.parametrize("text, names", [
        ("n = abc\nK = 2\n", ("'n'", "'abc'")),
        ("n = 10\nK = 2\nlambda = 1, x\n", ("'lambda'", "'x'")),
        ("n = 10\nK = 2\nreps =\n", ("'reps'",)),
        ("n = 10\nK = 2\nreps = 2, 3\n", ("'reps'", "one value")),
        ("n = 10\nK = 2\nseed = 1, 2\n", ("'seed'", "one value")),
    ])
    def test_malformed_values_are_config_errors(self, text, names):
        with pytest.raises(ConfigError) as exc:
            ExperimentGrid.from_text(text)
        for name in names:
            assert name in str(exc.value)

    def test_seed_derivation_stable(self):
        a = derive_seed(7, "36", "2", "0.5")
        assert a == derive_seed(7, "36", "2", "0.5")
        assert a != derive_seed(8, "36", "2", "0.5")
        assert 0 <= a < 2 ** 64


class TestSweep:
    def test_determinism_and_resume(self, tmp_path):
        grid = ExperimentGrid.from_text(SMALL_GRID)

        out_a = tmp_path / "a" / "results.csv"
        out_b = tmp_path / "b" / "results.csv"
        out_a.parent.mkdir()
        out_b.parent.mkdir()
        summary = run_sweep(grid, out_a)
        assert summary == {"rows": 8, "computed": 8, "skipped": 0}
        run_sweep(grid, out_b)

        agg_a = sidecar_paths(out_a)["aggregated"].read_bytes()
        agg_b = sidecar_paths(out_b)["aggregated"].read_bytes()
        assert agg_a == agg_b
        assert out_a.read_bytes() == out_b.read_bytes()

        # delete half the data rows; re-running must restore them bytewise
        original = out_a.read_bytes()
        lines = out_a.read_text(encoding="utf-8").splitlines(keepends=True)
        out_a.write_text("".join(lines[:1] + lines[1::2]), encoding="utf-8")
        summary = run_sweep(grid, out_a)
        assert summary["computed"] == 4 and summary["skipped"] == 4
        assert out_a.read_bytes() == original
        assert sidecar_paths(out_a)["aggregated"].read_bytes() == agg_a

        # a completed sweep re-runs as a no-op
        summary = run_sweep(grid, out_a)
        assert summary["computed"] == 0

    def test_row_shape_and_timings_sidecar(self, tmp_path):
        grid = ExperimentGrid.from_text(SMALL_GRID)
        out = tmp_path / "results.csv"
        run_sweep(grid, out)
        rows = read_rows(out)
        assert len(rows) == 8
        assert tuple(rows[0].keys()) == RESULT_COLUMNS
        for row in rows:
            assert row["error"] == ""
            assert 0.0 <= float(row["purity_weighted"]) <= 1.0
            assert 0.0 <= float(row["purity_macro"]) <= 1.0
        timing_rows = read_rows(sidecar_paths(out)["timings"])
        assert len(timing_rows) == 8
        assert all(float(row["seconds_total"]) >= 0.0 for row in timing_rows)
        agg = read_rows(sidecar_paths(out)["aggregated"])
        assert len(agg) == 4
        assert all(row["repetitions"] == "2" for row in agg)

    def test_error_rows_recorded_not_fatal(self, tmp_path):
        # kmodes on a Q=0 grid cell must yield an error row, not an abort
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(0,),
                              sigma_values=(0.5,), p_values=(0.0,),
                              lambda_values=(1.0,),
                              methods=("kmodes", "numeric-spectral"),
                              repetitions=1, seed=1)
        out = tmp_path / "results.csv"
        run_sweep(grid, out)
        rows = {row["method"]: row for row in read_rows(out)}
        assert rows["kmodes"]["error"] == "config"
        assert rows["kmodes"]["purity_weighted"] == ""
        assert rows["numeric-spectral"]["error"] == ""
        agg = {row["method"]: row for row in
               read_rows(sidecar_paths(out)["aggregated"])}
        assert agg["kmodes"]["errors"] == "1"

    def test_worker_pool_matches_serial(self, tmp_path):
        grid = ExperimentGrid.from_text(SMALL_GRID)
        serial = tmp_path / "serial" / "results.csv"
        pooled = tmp_path / "pooled" / "results.csv"
        serial.parent.mkdir()
        pooled.parent.mkdir()
        run_sweep(grid, serial, workers=1)
        run_sweep(grid, pooled, workers=2)
        assert serial.read_bytes() == pooled.read_bytes()
        assert (sidecar_paths(serial)["aggregated"].read_bytes()
                == sidecar_paths(pooled)["aggregated"].read_bytes())

    def test_foreign_rows_rejected(self, tmp_path):
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(1,),
                              sigma_values=(0.0,), p_values=(0.0,),
                              lambda_values=(1.0,), methods=("onlycat",),
                              repetitions=1, seed=0)
        out = tmp_path / "results.csv"
        run_sweep(grid, out)
        other = ExperimentGrid(n_values=(24,), k_values=(2,), q_values=(1,),
                               sigma_values=(0.0,), p_values=(0.0,),
                               lambda_values=(1.0,), methods=("onlycat",),
                               repetitions=1, seed=0)
        from specmix import DataError
        with pytest.raises(DataError):
            run_sweep(other, out)

    @pytest.mark.parametrize("body", [b"\xff\n", b"x" * 200_000 + b"\n"],
                             ids=["non-utf8", "oversized-field"])
    def test_unreadable_results_file_is_data_error(self, tmp_path, body):
        grid = ExperimentGrid.from_text(SMALL_GRID)
        out = tmp_path / "results.csv"
        out.write_bytes(",".join(RESULT_COLUMNS).encode() + b"\n" + body)
        from specmix import DataError
        with pytest.raises(DataError, match="results.csv"):
            run_sweep(grid, out)

    def test_internal_error_recorded_with_traceback(self, tmp_path,
                                                    monkeypatch, capsys):
        def broken(ds, cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("specmix.sweep.specmix", broken)
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(1,),
                              sigma_values=(0.5,), p_values=(0.0,),
                              lambda_values=(1.0,), methods=("specmix",),
                              repetitions=1, seed=0)
        out = tmp_path / "results.csv"
        run_sweep(grid, out, workers=1)
        assert [row["error"] for row in read_rows(out)] == ["internal"]
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err


class TestRunMethod:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_returns_a_result(self, method):
        ds, _ = generate_synthetic(SyntheticParams(n=60, k=3, q=2, sigma=0.5,
                                                   p=0.1, seed=3))
        cfg = SpecMixConfig(k=3, lambdas=10.0,
                            kmeans=KMeansConfig(restarts=3), seed=1)
        result = run_method(method, ds, cfg)
        assert isinstance(result, ClusteringResult)
        assert result.method == method
        assert result.labels.shape == (60,)
        assert result.labels.min() >= 0 and result.labels.max() < 3
        assert "total" in result.timings
        doc = result.to_json()
        back = ClusteringResult.from_json(doc)
        assert back.method == method
        assert np.array_equal(back.labels, result.labels)
        assert back.to_json() == doc

    def test_unknown_method(self):
        ds, _ = generate_synthetic(SyntheticParams(n=20, k=2, q=1, sigma=0.5,
                                                   p=0.0))
        with pytest.raises(ConfigError, match="magic"):
            run_method("magic", ds, SpecMixConfig(k=2))

    def test_cli_method_choices_are_methods(self):
        parser = _build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        method = next(action for action in sub.choices["cluster"]._actions
                      if action.dest == "method")
        assert tuple(method.choices) == METHODS


class TestSynthCommand:
    def test_noise_free_exact_and_deterministic(self, tmp_path):
        out = tmp_path / "synth.csv"
        args = ["synth", "--n", "4", "--k", "2", "--q", "1", "--sigma", "0",
                "--p", "0", "--seed", "3", "--output", str(out)]
        assert main(args) == 0
        rows = read_rows(out)
        assert [row["label"] for row in rows] == ["0", "0", "1", "1"]
        assert [row["num0"] for row in rows] == ["1", "1", "0", "0"]
        assert [row["cat0"] for row in rows] == ["0", "0", "1", "1"]
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_nan_sigma_is_config_error(self, tmp_path, capsys):
        # used to exit 3 with a data error about numeric column 0
        code = main(["synth", "--n", "10", "--k", "2", "--sigma", "nan",
                     "--output", str(tmp_path / "synth.csv")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "sigma" in err["message"]

    def test_full_corruption_never_attached(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--n", "400", "--k", "4", "--q", "2",
                     "--sigma", "1", "--p", "1", "--seed", "1",
                     "--output", str(out)]) == 0
        for row in read_rows(out):
            assert row["cat0"] != row["label"]
            assert row["cat1"] != row["label"]


class TestClusterCommand:
    def make_dataset(self, tmp_path, n=40):
        path = tmp_path / "data.csv"
        main(["synth", "--n", str(n), "--k", "2", "--q", "2", "--sigma",
              "0.2", "--p", "0", "--seed", "5", "--output", str(path)])
        return path

    def test_onlycat_json_and_purity(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        out = tmp_path / "result.json"
        code = main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--method", "onlycat", "--k", "2", "--lambda", "1",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        assert len(doc["labels"]) == 40
        captured = capsys.readouterr()
        assert "purity_weighted=" in captured.out

    def test_specmix_on_categorical_only_errors(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        code = main(["cluster", str(data), "--schema",
                     "ignore,ignore,cat,cat,label", "--method", "specmix",
                     "--k", "2"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "onlycat" in err["message"]

    def test_kmodes_without_categories_errors(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        code = main(["cluster", str(data), "--schema",
                     "num,num,ignore,ignore,label", "--method", "kmodes",
                     "--k", "2"])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_malformed_lambda_is_config_error(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        code = main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--k", "2", "--lambda", "abc"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "--lambda" in err["message"] and "'abc'" in err["message"]

    def test_non_finite_numeric_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x,c\n1,a\nnan,b\n3,a\n2,b\n", encoding="utf-8")
        code = main(["cluster", str(data), "--schema", "num,cat", "--k", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "data"

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"x,c\n1,a\n3,\xff\n2,b\n")
        code = main(["cluster", str(data), "--schema", "num,cat", "--k", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "data"

    def test_missing_schema_is_usage_error(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(data), "--k", "2"])
        assert exc.value.code == 2

    def test_schema_file(self, tmp_path):
        data = self.make_dataset(tmp_path)
        schema = tmp_path / "schema.txt"
        schema.write_text("num,num,cat,cat,label\n")
        out = tmp_path / "result.json"
        assert main(["cluster", str(data), "--schema-file", str(schema),
                     "--method", "specmix", "--k", "2", "--lambda", "50",
                     "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["labels"]) == 40

    def test_baseline_methods(self, tmp_path):
        data = self.make_dataset(tmp_path)
        for method in ("kmodes", "kprototypes", "numeric-spectral"):
            out = tmp_path / f"{method}.json"
            assert main(["cluster", str(data), "--schema",
                         "num,num,cat,cat,label", "--method", method,
                         "--k", "2", "--output", str(out)]) == 0
            assert len(json.loads(out.read_text())["labels"]) == 40

    def test_dump_graph(self, tmp_path):
        data = self.make_dataset(tmp_path, n=10)
        dump = tmp_path / "wall.csv"
        assert main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--method", "specmix", "--k", "2", "--lambda", "2",
                     "--output", str(tmp_path / "r.json"),
                     "--dump-graph", str(dump)]) == 0
        dense = np.loadtxt(dump, delimiter=",")
        degrees = np.loadtxt(tmp_path / "wall.degrees.csv", delimiter=",")
        assert dense.shape == (14, 14)  # 10 data nodes + 2x2 categories
        assert np.allclose(dense.sum(axis=1), degrees, atol=1e-6)

    def test_dump_graph_checks_lambdas_first(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        main(["synth", "--n", "20", "--k", "2", "--q", "3", "--sigma", "0.2",
              "--p", "0", "--seed", "5", "--output", str(path)])
        dump = tmp_path / "g.csv"
        code = main(["cluster", str(path), "--schema",
                     "num,num,cat,cat,cat,label", "--k", "2",
                     "--lambda", "1,2", "--dump-graph", str(dump)])
        assert code == 4
        assert "expected 3 lambda values" in capsys.readouterr().err
        assert not dump.exists()

    def test_dump_graph_refuses_large(self, tmp_path, capsys):
        # 120 rows x 50 categorical columns with 120 distinct values each
        # pushes n + t over the dump limit while staying cheap to build
        rng = np.random.default_rng(0)
        n, q = 120, 50
        path = tmp_path / "wide.csv"
        header = ["x"] + [f"c{j}" for j in range(q)]
        columns = [rng.permutation(n) for _ in range(q)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for i in range(n):
                row = [f"{rng.standard_normal():.4f}"]
                row += [str(col[i]) for col in columns]
                handle.write(",".join(row) + "\n")
        code = main(["cluster", str(path), "--schema",
                     ",".join(["num"] + ["cat"] * q), "--method", "specmix",
                     "--k", "2", "--dump-graph", str(tmp_path / "wall.csv")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert "refusing" in err["message"]


class TestEvalCommand:
    def test_eval_result_against_dataset(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["synth", "--n", "30", "--k", "2", "--q", "2", "--sigma", "0.1",
              "--p", "0", "--seed", "2", "--output", str(data)])
        result = tmp_path / "result.json"
        main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
              "--method", "onlycat", "--k", "2", "--output", str(result)])
        capsys.readouterr()
        code = main(["eval", "--pred", str(result), "--truth", str(data),
                     "--schema", "num,num,cat,cat,label"])
        assert code == 0
        out = capsys.readouterr().out
        assert "purity_weighted=1" in out
        assert "label_agreement=1" in out
        assert "imbalance_ratio=1" in out

    @pytest.mark.parametrize("schema_text, code", [("num,num,cat,cat,label", 0),
                                                   ("num,num,cat,cat,cat", 3)])
    def test_eval_truth_with_schema_file(self, tmp_path, capsys, schema_text, code):
        data = tmp_path / "data.csv"
        main(["synth", "--n", "20", "--k", "2", "--q", "2", "--output", str(data)])
        schema = tmp_path / "schema.txt"
        schema.write_text(schema_text + "\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("\n".join(["0"] * 10 + ["1"] * 10) + "\n")
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--truth", str(data),
                     "--schema-file", str(schema)]) == code
        if code == 0:
            assert "purity_weighted=1" in capsys.readouterr().out
        else:  # the schema declares no label column
            assert "no label column" in json.loads(capsys.readouterr().err)["message"]

    def test_eval_empty_schema_text_is_schema_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0\n1\n")
        assert main(["eval", "--pred", str(a), "--truth", str(a), "--schema", ""]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema"

    def test_eval_plain_label_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n0\n1\n1\n")
        b.write_text("1\n1\n0\n0\n")
        assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 0
        assert "label_agreement=1" in capsys.readouterr().out

    def test_eval_length_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n")
        b.write_text("0\n1\n1\n")
        assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 3

    def test_non_utf8_label_file_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_bytes(b"0\n1\n\xff\n")
        assert main(["eval", "--pred", str(a), "--truth", str(a)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "data"

    @pytest.mark.parametrize("text, field", [
        ('{"version": 1, "labels": [0,', "not valid JSON"),
        ('{"version": 1, "labels": [0, 1]}', "'eigenvalues'"),
    ])
    def test_malformed_result_is_data_error(self, tmp_path, capsys, text, field):
        # both used to escape as tracebacks (JSONDecodeError, KeyError)
        a = tmp_path / "a.json"
        a.write_text(text)
        assert main(["eval", "--pred", str(a), "--truth", str(a)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and field in err["message"]

    def test_sweep_command(self, tmp_path):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = 20\nK = 2\nQ = 1\nlambda = 1\n"
                             "methods = onlycat\nreps = 1\nseed = 0\n")
        out = tmp_path / "results.csv"
        assert main(["sweep", "--grid", str(grid_path),
                     "--output", str(out)]) == 0
        assert len(read_rows(out)) == 1

    def test_sweep_command_non_utf8_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_bytes(b"n = 20\n# \xff\n")
        code = main(["sweep", "--grid", str(grid_path),
                     "--output", str(tmp_path / "results.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_sweep_command_malformed_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = abc\nK = 2\n")
        code = main(["sweep", "--grid", str(grid_path),
                     "--output", str(tmp_path / "results.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"

import argparse
import csv
import hashlib
import json
import os
import stat

import numpy as np
import pytest

from specmix import (ClusteringResult, ColumnSchema, ConfigError, DataError,
                     ExperimentGrid, KMeansConfig, SpecMixConfig,
                     SyntheticParams, generate_synthetic, run_sweep)
from specmix import cli, errors
from specmix.cli import _build_parser, main
from specmix.sweep import (COORDS, METHODS, RESULT_COLUMNS, derive_seed,
                           run_method, sidecar_paths, write_rows,
                           write_whole)

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


def write_csv_rows(path, fail):
    """Write a CSV with ``write_rows``, raising after its header if ``fail``."""
    def rows():
        yield ["a", "b"]
        if fail:
            raise RuntimeError("interrupted")
        yield ["1", "2"]
    write_rows(path, rows())


def write_json_text(path, fail):
    """Write a JSON document with ``write_whole``, as ``specmix cluster
    --output`` does, raising halfway through if ``fail``."""
    def write(handle):
        handle.write('{\n  "labels": [')
        if fail:
            raise RuntimeError("interrupted")
        handle.write("0, 1]\n}\n")
    write_whole(path, write)


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
        methods = [(key[COORDS.index("method")], key[COORDS.index("lambda")])
                   for key in keys]
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
        # a repeated key used to keep its last line: sigma = (1, 2), K = 3
        ("n = 10\nK = 2\nsigma = 0.5\nsigma = 1, 2\n", ("line 4", "'sigma'")),
        ("n = 10\nK = 2\nk = 3\n", ("line 3", "'k'")),
    ])
    def test_malformed_values_are_config_errors(self, text, names):
        with pytest.raises(ConfigError) as exc:
            ExperimentGrid.from_text(text)
        for name in names:
            assert name in str(exc.value)

    @pytest.mark.parametrize("line", ["sigma = 1, 1.0",
                                      "methods = specmix, specmix",
                                      "lambda = 50, 50.0"])
    def test_values_naming_one_row_twice_are_config_errors(self, line):
        # each row used to be computed and written twice, and counted as
        # two repetitions in the aggregate
        with pytest.raises(ConfigError, match="twice"):
            ExperimentGrid.from_text(f"n = 10\nK = 2\n{line}\n")

    @pytest.mark.parametrize("lines, name", [
        ("K = 2\np = 1.5", "p"), ("K = 2\nsigma = nan", "sigma"),
        ("K = 2\nsigma = -1", "sigma"), ("K = 2\nlambda = -1", "lambda"),
        ("K = 2\nlambda = inf", "lambda"), ("K = 2, 20", "n >= k"),
        ("K = 2\nQ = -1", "q")])
    def test_rows_that_must_fail_are_config_errors(self, lines, name):
        # p = 1.5 and lambda = -1 used to write every row as a config error
        with pytest.raises(ConfigError, match=name):
            ExperimentGrid.from_text(f"n = 10\n{lines}\n")

    def test_lambda_checked_only_for_specmix(self):
        grid = ExperimentGrid.from_text(
            "n = 10\nK = 2\nlambda = -1\nmethods = onlycat, kmodes\n")
        assert len(grid.row_keys()) == 2

    def test_unused_axis_may_repeat_a_value(self):
        # lambda is not an axis of onlycat, so its rows stay distinct
        grid = ExperimentGrid.from_text(
            "n = 10\nK = 2\nlambda = 50, 50.0\nmethods = onlycat\n")
        assert len(grid.row_keys()) == 1

    def test_seed_derivation_stable(self):
        a = derive_seed(7, "36", "2", "0.5")
        assert a == derive_seed(7, "36", "2", "0.5")
        assert a != derive_seed(8, "36", "2", "0.5")
        assert 0 <= a < 2 ** 64


def seeded_grid(seed):
    return ExperimentGrid(n_values=(60,), k_values=(2,), q_values=(1,),
                          sigma_values=(0.5,), p_values=(0.3,),
                          methods=("onlycat", "kmodes"), repetitions=2,
                          seed=seed)


def output_bytes(out):
    """The bytes of the results CSV and its three sidecars."""
    return [path.read_bytes() for path in (out, *sidecar_paths(out).values())]


class TestSweep:
    def test_results_bytes_are_pinned(self, tmp_path):
        # sha256 of the results CSV as written before the eigensolver dropped
        # its checks past 4/5 of the space and K-means built its one-hot in
        # CSC form, at one and at two BLAS threads; the K=8 numeric solves
        # (specmix at lambda 0 and numeric-spectral) fill their basis
        grid = ExperimentGrid(n_values=(120,), k_values=(2, 8),
                              sigma_values=(1.0,), p_values=(0.25,),
                              lambda_values=(0.0, 10.0), methods=METHODS)
        out = tmp_path / "results.csv"
        run_sweep(grid, out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ab0a44b583e22f75172deb823c78402efb29a0aa1f547146cfaa5929e917e5d6")

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

    def test_resume_keeps_timings_of_kept_rows_only(self, tmp_path):
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(0, 1),
                              sigma_values=(0.5,), p_values=(0.0,),
                              methods=("kmodes", "numeric-spectral"),
                              repetitions=2, seed=3)
        out = tmp_path / "results.csv"
        timings = sidecar_paths(out)["timings"]
        run_sweep(grid, out)
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        before = {tuple(row[col] for col in COORDS): row
                  for row in read_rows(timings)}
        # a stale timing row for a deleted error row must not come back
        stale = [row for row in read_rows(out)[::2] if row["error"]]
        assert stale
        with open(timings, "a", encoding="utf-8") as handle:
            for row in stale:
                handle.write(",".join([row[col] for col in COORDS]
                                      + ["1"] * 4) + "\n")
        out.write_text("".join(lines[:1] + lines[2::2]), encoding="utf-8")
        kept = {tuple(row[col] for col in COORDS) for row in read_rows(out)}

        run_sweep(grid, out)
        results = read_rows(out)
        ok = [tuple(row[col] for col in COORDS) for row in results
              if not row["error"]]
        assert len(ok) < len(results)
        after = read_rows(timings)
        assert [tuple(row[col] for col in COORDS) for row in after] == ok
        for row in after:
            key = tuple(row[col] for col in COORDS)
            if key in kept:
                assert row == before[key]

    def test_failed_second_write_keeps_timings_on_resume(self, tmp_path,
                                                           monkeypatch):
        grid = ExperimentGrid(n_values=(60,), k_values=(2,), q_values=(1,),
                              methods=("onlycat", "kmodes"), repetitions=2)
        out = tmp_path / "results.csv"
        run_sweep(grid, out)
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        out.write_text("".join(lines[:3]), encoding="utf-8")
        calls = []

        def fail_second(path, rows):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_rows(path, rows)

        with monkeypatch.context() as patch:
            patch.setattr("specmix.sweep.write_rows", fail_second)
            with pytest.raises(OSError):
                run_sweep(grid, out)
        summary = run_sweep(grid, out)
        assert summary == {"rows": 4, "computed": 2, "skipped": 2}
        ok = [tuple(row[col] for col in COORDS) for row in read_rows(out)
              if not row["error"]]
        timed = [tuple(row[col] for col in COORDS)
                 for row in read_rows(sidecar_paths(out)["timings"])]
        assert len(ok) == 4 and timed == ok

    @pytest.mark.parametrize("write", [write_csv_rows, write_json_text],
                             ids=["csv", "json"])
    def test_failed_write_leaves_the_old_file(self, tmp_path, write):
        out = tmp_path / "results.out"
        write(out, fail=False)
        before = out.read_bytes()
        with pytest.raises(RuntimeError):
            write(out, fail=True)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.out"]

    @pytest.mark.parametrize("write", [write_csv_rows, write_json_text],
                             ids=["csv", "json"])
    def test_a_symlink_is_written_through_not_replaced(self, tmp_path, write):
        # a relative link: its target is replaced whole, the link stays, and
        # a failed write leaves the target as it was
        plain, target, link = (tmp_path / f"{name}.out" for name in ("plain", "target", "link"))
        write(plain, fail=False)
        target.write_text("{}")
        link.symlink_to(target.name)
        write(link, fail=False)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == plain.read_bytes()
        with pytest.raises(RuntimeError):
            write(link, fail=True)
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.out", "plain.out", "target.out"]

    def test_a_pipe_is_written_through_not_replaced(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_json_text(pipe, fail=False)
            assert os.read(reader, 100) == b'{\n  "labels": [0, 1]\n}\n'
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

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

    @pytest.mark.parametrize("workers", ["2", 0], ids=["2-None", "0-None"])
    def test_bad_workers_is_config_error(self, tmp_path, workers):
        # "2" used to raise a raw TypeError
        grid = ExperimentGrid(n_values=(20,), k_values=(2,), q_values=(1,),
                              methods=("onlycat",))
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(grid, tmp_path / "results.csv", workers=workers)

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

    def test_rows_of_another_base_seed_rejected(self, tmp_path):
        # same coordinates, other seeds: keeping these rows would mix two
        # sweeps in one output
        out = tmp_path / "results.csv"
        run_sweep(seeded_grid(42), out)
        before = output_bytes(out)
        with pytest.raises(DataError, match="base seed"):
            run_sweep(seeded_grid(43), out)
        assert output_bytes(out) == before

    @pytest.mark.parametrize("name, edit, column", [
        ("timings", lambda row: row.update(seconds_total="abc"),
         "seconds_total"),
        ("timings", lambda row: row.update(seconds_total=None), None),
        ("results", lambda row: row.update(purity_weighted="abc"),
         "purity_weighted"),
        ("results", lambda row: row.update(purity_macro="nan"),
         "purity_macro"),
        ("results", lambda row: row.update(extra="1"), None),
    ], ids=["timing-text", "timing-cut-off", "purity-text", "purity-nan",
            "extra-cell"])
    def test_malformed_kept_cell_is_data_error(self, tmp_path, name, edit,
                                               column):
        # refused when the file is read, before any row is computed or any
        # file written
        out = tmp_path / "results.csv"
        grid = seeded_grid(42)
        run_sweep(grid, out)
        path = out if name == "results" else sidecar_paths(out)[name]
        rows = read_rows(path)
        edit(rows[1])  # line 3 of the file
        write_rows(path, [list(rows[0]), *(
            [cell for cell in row.values() if cell is not None]
            for row in rows)])
        before = output_bytes(out)
        with pytest.raises(DataError) as exc:
            run_sweep(grid, out)
        message = str(exc.value)
        assert f"{path}, line 3" in message
        assert column is None or f"column {column}" in message
        assert output_bytes(out) == before

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

    @pytest.mark.parametrize("method", ["kmodes", "kprototypes"])
    def test_baseline_config_holds_what_it_ran_with(self, method):
        # used to echo the K-means max_iters, tol and normalize_rows and the
        # lambdas, none of which a baseline reads
        ds, _ = generate_synthetic(SyntheticParams(n=30, k=2, q=2, sigma=0.5,
                                                   p=0.1, seed=1))
        cfg = SpecMixConfig(k=2, lambdas=5.0, kmeans=KMeansConfig(restarts=3),
                            seed=4)
        result = run_method(method, ds, cfg)
        assert result.config == {"k": 2, "restarts": 3, "seed": 4}
        assert ClusteringResult.from_json(result.to_json()).config == result.config

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

    @pytest.mark.parametrize("lam", ["-1", "nan"])
    def test_bad_lambda_without_categories_is_config_error(self, tmp_path,
                                                           capsys, lam):
        # with no categorical variable no lambda is used, but it is checked
        data = self.make_dataset(tmp_path)
        out = tmp_path / "result.json"
        code = main(["cluster", str(data), "--schema",
                     "num,num,ignore,ignore,label", "--k", "2", "--lambda", lam,
                     "--output", str(out)])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "message": "lambda values must be finite and nonnegative"}
        assert not out.exists()

    def test_result_goes_to_stdout_without_output(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        code = main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--method", "onlycat", "--k", "2"])
        assert code == 0
        captured = capsys.readouterr()
        result = ClusteringResult.from_json(captured.out)
        assert result.method == "onlycat" and result.labels.size == 40
        assert result.to_json() + "\n" == captured.out
        assert "purity_weighted=" in captured.err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        out = tmp_path / "missing" / "result.json"
        code = main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--method", "onlycat", "--k", "2", "--output", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"
        assert not out.parent.exists()

    def test_malformed_lambda_is_config_error(self, tmp_path, capsys):
        data = self.make_dataset(tmp_path)
        code = main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--k", "2", "--lambda", "abc"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "--lambda" in err["message"] and "'abc'" in err["message"]

    @pytest.mark.parametrize("flags", [
        ["--lambda", "abc"], ["--k", "1"], ["--restarts", "0"]])
    def test_config_checked_before_the_load(self, tmp_path, capsys, flags):
        # the dataset does not exist, which would be an io error (exit 3)
        code = main(["cluster", str(tmp_path / "missing.csv"), "--schema",
                     "num,cat", "--k", "2", *flags])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_non_finite_numeric_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x,c\n1,a\nnan,b\n3,a\n2,b\n", encoding="utf-8")
        code = main(["cluster", str(data), "--schema", "num,cat", "--k", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "data"

    def test_missing_csv_is_io_error(self, tmp_path, capsys):
        # an unreadable dataset used to be a data error; every other
        # unreadable or unwritable file was already io
        code = main(["cluster", str(tmp_path / "missing.csv"), "--schema",
                     "num,cat", "--k", "2"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

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


# A result that ``specmix cluster`` wrote while KMeansConfig still had a
# row normalization flag, always false: synth --n 16 --k 2 --q 2 --sigma 1.5
# --p 0.3 --seed 2, then cluster --k 2 --lambda 2 --seed 3.
OLD_RESULT = """{
  "config": {
    "k": 2,
    "kmeans": {
      "max_iters": 1,
      "normalize_rows": false,
      "restarts": 10
    },
    "lambdas": 2.0,
    "seed": 3
  },
  "eigenvalues": [
    -1.2490009027033009e-16,
    0.34159382586428666
  ],
  "embedding_rows_used": 20,
  "labels": [
    0,
    1,
    0,
    0,
    0,
    0,
    0,
    0,
    1,
    1,
    1,
    1,
    1,
    0,
    1,
    0
  ],
  "max_residual": 1.1240976116498922e-15,
  "method": "specmix",
  "seed": 3,
  "timings": {
    "eigen": 0.0030858940008329228,
    "graph": 0.0009513080003671348,
    "kmeans": 0.003745097004866693,
    "total": 0.007782299006066751
  },
  "version": 1
}"""


class TestEvalCommand:
    def test_result_with_the_old_kmeans_config_still_reads(self, tmp_path, capsys):
        old = ClusteringResult.from_json(OLD_RESULT)
        assert old.to_json() == OLD_RESULT
        assert old.labels.tolist() == [0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0]
        data, pred, new = (tmp_path / name for name in ("data.csv", "old.json", "new.json"))
        pred.write_text(OLD_RESULT + "\n")
        main(["synth", "--n", "16", "--k", "2", "--q", "2", "--sigma", "1.5",
              "--p", "0.3", "--seed", "2", "--output", str(data)])
        assert main(["eval", "--pred", str(pred), "--truth", str(data),
                     "--schema", "num,num,cat,cat,label"]) == 0
        out = capsys.readouterr().out
        assert "purity_weighted=0.8125\npurity_macro=0.817460317\n" in out
        # today's run of the same command: the same labels, one setting fewer
        assert main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
                     "--k", "2", "--lambda", "2", "--seed", "3", "--output", str(new)]) == 0
        result = ClusteringResult.from_json(new.read_text())
        assert np.array_equal(result.labels, old.labels)
        assert result.config == {**old.config, "kmeans": {"max_iters": 1, "restarts": 10}}

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

    def test_eval_takes_one_schema_flag(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("label\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pred", str(labels), "--truth", str(labels),
                  "--schema", "label", "--schema-file", str(schema)])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

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

    def test_eval_label_file_with_a_header_line(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("cluster\n0\n0\n1\n1\n")
        b.write_text("1\n1\n0\n0\n")
        assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 0
        assert "label_agreement=1" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("", "contains no labels"), ("label\n", "contains no labels"),
        ("0\n1\nx\n", "cannot parse labels")])
    def test_eval_unreadable_label_file_is_data_error(self, tmp_path, capsys,
                                                      text, message):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(text)
        b.write_text("0\n1\n1\n")
        assert main(["eval", "--pred", str(a), "--truth", str(b)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and message in err["message"]

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

    @pytest.mark.parametrize("edit", ["seed = 1", "abc"])
    def test_sweep_command_refuses_kept_rows(self, tmp_path, capsys, edit):
        # a rerun under another base seed, or over a timing cell that is
        # not a number, is a data error that leaves every output as it was
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = 20\nK = 2\nQ = 1\nmethods = onlycat\n"
                             "reps = 2\n")
        out = tmp_path / "results.csv"
        assert main(["sweep", "--grid", str(grid_path),
                     "--output", str(out)]) == 0
        if edit == "abc":
            timings = sidecar_paths(out)["timings"]
            lines = timings.read_text(encoding="utf-8").splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
            timings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            grid_path.write_text(grid_path.read_text() + edit + "\n")
        capsys.readouterr()
        before = output_bytes(out)
        assert main(["sweep", "--grid", str(grid_path),
                     "--output", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "data"
        assert output_bytes(out) == before

    def test_sweep_command_non_utf8_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_bytes(b"n = 20\n# \xff\n")
        code = main(["sweep", "--grid", str(grid_path),
                     "--output", str(tmp_path / "results.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_sweep_command_bad_workers_env(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = 20\nK = 2\nQ = 1\nmethods = onlycat\n")
        code = main(["sweep", "--grid", str(grid_path),
                     "--output", str(tmp_path / "results.csv"), "--workers", "0"])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "workers" in err["message"]

    def test_sweep_command_refuses_rows_that_must_fail(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = 20\nK = 2\np = 1.5\nlambda = -1\n"
                             "methods = specmix, onlycat\n")
        out = tmp_path / "results.csv"
        assert main(["sweep", "--grid", str(grid_path), "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()
        assert not any(path.exists() for path in sidecar_paths(out).values())

    @pytest.mark.parametrize("text, message", [
        ("n = 10\nK 2\n", "grid line 2: expected 'key = values'"),
        ("n = 10\n", "grid must define 'n' and 'K'"),
        ("K = 2\n", "grid must define 'n' and 'K'")])
    def test_sweep_command_grid_without_its_keys(self, tmp_path, capsys,
                                                 text, message):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text(text)
        out = tmp_path / "results.csv"
        assert main(["sweep", "--grid", str(grid_path), "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().err) == {"error": "config",
                                                       "message": message}
        assert not out.exists()

    def test_sweep_command_results_with_unexpected_columns(self, tmp_path,
                                                           capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text(SMALL_GRID)
        out = tmp_path / "results.csv"
        out.write_text("n,K\n36,2\n", encoding="utf-8")
        assert main(["sweep", "--grid", str(grid_path), "--output", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "unexpected columns" in err["message"]
        assert out.read_text(encoding="utf-8") == "n,K\n36,2\n"

    def test_sweep_command_malformed_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("n = abc\nK = 2\n")
        code = main(["sweep", "--grid", str(grid_path),
                     "--output", str(tmp_path / "results.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "config"



@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_input_file_reads_alike_at_any_line_end(tmp_path, end):
    # the reader keeps line ends; each reader after it splits at all three
    def with_ends(path):
        copy = path.with_name(f"ends-{path.name}")
        copy.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        return copy

    schema, grid, labels = (tmp_path / name for name in
                            ("schema.txt", "grid.txt", "labels.txt"))
    schema.write_text("num, cat,label\n\n")
    assert ColumnSchema.from_file(with_ends(schema)) == ColumnSchema.from_file(schema)
    grid.write_text(SMALL_GRID)
    assert ExperimentGrid.from_file(with_ends(grid)) == ExperimentGrid.from_file(grid)
    labels.write_text("label\n0\n2\n\n1\n")
    assert cli._read_labels(with_ends(labels)).tolist() == [0, 2, 1]
    data, result = tmp_path / "data.csv", tmp_path / "result.json"
    main(["synth", "--n", "20", "--k", "2", "--q", "2", "--output", str(data)])
    main(["cluster", str(data), "--schema", "num,num,cat,cat,label",
          "--method", "onlycat", "--k", "2", "--output", str(result)])
    assert np.array_equal(cli._read_labels(with_ends(result)),
                          cli._read_labels(result))

    # a resume over copies of the results and timings CSVs keeps every row
    # and writes them back with \n line ends
    out = tmp_path / "results.csv"
    run_sweep(seeded_grid(1), out)
    before = output_bytes(out)
    for path in (out, sidecar_paths(out)["timings"]):
        with_ends(path).replace(path)
    assert run_sweep(seeded_grid(1), out)["computed"] == 0
    assert output_bytes(out) == before


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (errors.SpecmixError, 1), (errors.SchemaError, 2), (errors.DataError, 3),
        (errors.ConfigError, 4), (errors.SpectralGapError, 5),
        (errors.ConvergenceError, 5)])
    def test_main_returns_the_errors_exit_code(self, tmp_path, capsys,
                                               monkeypatch, error, code):
        # a subclass keeps its parent's codes; a lookup by exact type gave it 1
        class Narrower(error):
            pass

        for raised in (error, Narrower):
            def fail(args, raised=raised):
                raise raised("failed")

            monkeypatch.setattr(cli, "_cmd_synth", fail)
            assert main(["synth", "--n", "10", "--k", "2",
                         "--output", str(tmp_path / "synth.csv")]) == code
            assert json.loads(capsys.readouterr().err)["error"] == error.code

import json

import pytest

from ctxclass import cli, data

from conftest import make_hepatitis_text, make_vowel_text, worked_spec


@pytest.fixture()
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(worked_spec().to_json())
    return p


@pytest.fixture()
def small_table(tmp_path):
    schema = (
        '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
        ' {"name": "x", "role": "primary", "kind": "continuous"},\n'
        ' {"name": "g", "role": "contextual", "kind": "discrete", "alphabet": ["0", "1"]}]'
    )
    sp = tmp_path / "t.schema.json"
    sp.write_text(schema)
    dp = tmp_path / "t.csv"
    rows = [f"{'a' if i % 2 else 'b'},{i / 10},{i % 2}" for i in range(20)]
    dp.write_text("\n".join(rows) + "\n")
    return dp, sp


@pytest.fixture()
def continuous_context_table(tmp_path):
    """20 rows whose continuous context takes only 3 distinct values."""
    schema = (
        '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
        ' {"name": "x", "role": "primary", "kind": "continuous"},\n'
        ' {"name": "c", "role": "contextual", "kind": "continuous"}]'
    )
    sp = tmp_path / "c.schema.json"
    sp.write_text(schema)
    dp = tmp_path / "c.csv"
    rows = [f"{'a' if i % 2 else 'b'},{i / 10},{float(i % 3)}" for i in range(20)]
    dp.write_text("\n".join(rows) + "\n")
    return dp, sp


class TestTaxonomyCommand:
    def test_spec_verdict(self, spec_file, capsys):
        assert cli.main(["taxonomy", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "x1" in out and "primary" in out and "contextual" in out

    def test_json_output(self, spec_file, tmp_path):
        out = tmp_path / "verdict.json"
        assert cli.main(["taxonomy", "--spec", str(spec_file), "--json", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["labels"]["x1"] == "primary"

    def test_spec_and_data_mutually_exclusive(self, spec_file, small_table):
        dp, _ = small_table
        assert cli.main(["taxonomy", "--spec", str(spec_file), "--data", str(dp)]) == 1
        assert cli.main(["taxonomy"]) == 1

    def test_data_requires_schema(self, small_table):
        dp, _ = small_table
        assert cli.main(["taxonomy", "--data", str(dp)]) == 1

    def test_missing_spec_file(self, tmp_path):
        assert cli.main(["taxonomy", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_continuous_needs_bins(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp)])
        assert code == 3
        assert "--bins" in capsys.readouterr().err

    def test_continuous_with_bins(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp), "--bins", "2"])
        assert code == 0
        assert "x" in capsys.readouterr().out

    def test_one_bin_is_usage_error(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp), "--bins", "1"])
        assert code == 1
        assert "--bins" in capsys.readouterr().err

    def test_more_bins_than_values_is_precondition(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp), "--bins", "500"])
        assert code == 3
        assert "distinct values" in capsys.readouterr().err


    def test_missing_cells_are_precondition(self, tmp_path, capsys):
        sp = tmp_path / "m.schema.json"
        sp.write_text(
            '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
            ' {"name": "g", "role": "primary", "kind": "discrete", "alphabet": ["0", "1"]},\n'
            ' {"name": "h", "role": "contextual", "kind": "discrete", "alphabet": ["0", "1"]}]'
        )
        dp = tmp_path / "m.csv"
        dp.write_text("a,0,1\nb,?,0\na,1,?\nb,?,1\n")
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp)])
        assert code == 3
        assert "3 MISSING cells (first in feature 'g')" in capsys.readouterr().err


class TestRunGrid:
    def test_vowel_grid(self, vowel_file, capsys):
        code = cli.main(["run-grid", "--dataset", "vowel", "--train", str(vowel_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "synergy" in out and "normalize" in out

    def test_missing_files_without_env(self, monkeypatch, capsys):
        monkeypatch.delenv("CTXCLASS_DATA_DIR", raising=False)
        assert cli.main(["run-grid", "--dataset", "vowel"]) == 2
        assert "CTXCLASS_DATA_DIR" in capsys.readouterr().err

    def test_env_var_default(self, vowel_file, monkeypatch, capsys):
        target = vowel_file.parent / "vowel-context.data"
        target.write_text(vowel_file.read_text())
        monkeypatch.setenv("CTXCLASS_DATA_DIR", str(vowel_file.parent))
        assert cli.main(["run-grid", "--dataset", "vowel"]) == 0

    def test_hepatitis_grid_with_report(self, hepatitis_file, tmp_path, capsys):
        base = tmp_path / "rep"
        code = cli.main(
            ["run-grid", "--dataset", "hepatitis", "--data", str(hepatitis_file),
             "--splits", "2", "--seed", "1", "--out", str(base)]
        )
        assert code == 0
        assert base.with_suffix(".txt").exists()
        assert base.with_suffix(".csv").exists()
        assert base.with_suffix(".schema.json").exists()

    @pytest.mark.parametrize("splits", ["0", "1"])
    def test_fewer_than_two_splits_is_usage_error(self, tmp_path, splits, capsys):
        # exits before loading: the data file does not even exist
        code = cli.main(["run-grid", "--dataset", "hepatitis",
                         "--data", str(tmp_path / "absent.data"), "--splits", splits])
        assert code == 1
        assert "--splits" in capsys.readouterr().err

    def test_bad_dataset_name(self):
        assert cli.main(["run-grid", "--dataset", "iris"]) == 1

    def test_missing_hepatitis_class_is_load_error(self, tmp_path, capsys):
        lines = make_hepatitis_text().splitlines()
        lines[2] = "?," + lines[2].split(",", 1)[1]
        p = tmp_path / "hepatitis.data"
        p.write_text("\n".join(lines) + "\n")
        assert cli.main(["run-grid", "--dataset", "hepatitis", "--data", str(p)]) == 2
        assert "line 3: class cell is MISSING" in capsys.readouterr().err

    def test_vowel_class_outside_alphabet_is_load_error(self, tmp_path, capsys):
        lines = make_vowel_text().splitlines()
        fields = lines[5].split()
        fields[13] = "12"
        lines[5] = " ".join(fields)
        p = tmp_path / "vowel.data"
        p.write_text("\n".join(lines) + "\n")
        assert cli.main(["run-grid", "--dataset", "vowel", "--train", str(p)]) == 2
        assert "line 6: symbol '12' not valid for 'vowel'" in capsys.readouterr().err


class TestSynth:
    def test_writes_pair(self, tmp_path, capsys):
        base = tmp_path / "pair"
        code = cli.main(["synth", "--train-rows", "40", "--test-rows", "40",
                         "--out", str(base)])
        assert code == 0
        train = data.load_table(
            base.with_suffix(".train.csv"), base.with_suffix(".train.schema.json")
        )
        assert train.n_rows == 40
        assert "wrote" in capsys.readouterr().out

    def test_bad_params(self, tmp_path):
        assert cli.main(["synth", "--classes", "1", "--out", str(tmp_path / "x")]) == 1


class TestCompareNormalizers:
    def test_synthetic_default(self, capsys):
        assert cli.main(["compare-normalizers", "--noise", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "contextual-linear" in out and "nn" in out

    def test_unknown_baseline_class(self, capsys):
        code = cli.main(["compare-normalizers", "--baseline-class", "zz"])
        assert code == 3

    def test_continuous_class_is_load_error(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        sp.write_text(sp.read_text().replace(
            '"kind": "discrete", "alphabet": ["a", "b"]', '"kind": "continuous"'))
        dp.write_text("".join(f"{i % 2}.0,{i / 10},{i % 2}\n" for i in range(20)))
        code = cli.main(["compare-normalizers", "--train", str(dp), "--train-schema", str(sp),
                         "--test", str(dp), "--test-schema", str(sp)])
        assert code == 2
        assert "class feature 'cls' must be discrete" in capsys.readouterr().err

    def test_missing_class_cell_is_load_error(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        dp.write_text("a,0.1,0\n?,0.2,1\n")
        code = cli.main(["compare-normalizers", "--train", str(dp), "--train-schema", str(sp),
                         "--test", str(dp), "--test-schema", str(sp)])
        assert code == 2
        assert "line 2: class cell is MISSING" in capsys.readouterr().err

    def test_partial_file_args(self, small_table):
        dp, _ = small_table
        assert cli.main(["compare-normalizers", "--train", str(dp)]) == 1

    def test_missing_test_context_is_runtime_error(self, tmp_path, capsys):
        base = tmp_path / "pair"
        assert cli.main(["synth", "--train-rows", "30", "--test-rows", "30",
                         "--out", str(base)]) == 0
        test_csv = base.with_suffix(".test.csv")
        lines = test_csv.read_text().splitlines()
        lines[3] = "?," + lines[3].split(",", 1)[1]  # the context column comes first
        test_csv.write_text("\n".join(lines) + "\n")
        code = cli.main(
            ["compare-normalizers",
             "--train", str(base.with_suffix(".train.csv")),
             "--train-schema", str(base.with_suffix(".train.schema.json")),
             "--test", str(test_csv),
             "--test-schema", str(base.with_suffix(".test.schema.json"))]
        )
        assert code == 4
        assert "'condition' has MISSING cells" in capsys.readouterr().err


class TestImpute:
    def test_fills_cells(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        lines = dp.read_text().splitlines()
        fields = lines[0].split(",")
        fields[1] = "?"
        lines[0] = ",".join(fields)
        holed = tmp_path / "holed.csv"
        holed.write_text("\n".join(lines) + "\n")
        out = tmp_path / "filled.csv"
        code = cli.main(["impute", "--data", str(holed), "--schema", str(sp),
                         "--out", str(out)])
        assert code == 0
        filled = data.load_table(out, sp)
        assert filled.missing_count() == 0

    def test_load_error(self, tmp_path, small_table):
        _, sp = small_table
        code = cli.main(["impute", "--data", str(tmp_path / "nope.csv"),
                         "--schema", str(sp), "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestNormalize:
    def test_zscore(self, tmp_path, small_table):
        dp, sp = small_table
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "zscore", "--out", str(out)])
        assert code == 0
        ds = data.load_table(out, sp)
        col = [float(v) for v in ds.column(1)]
        assert abs(sum(col) / len(col)) < 1e-9

    def test_non_finite_cell_is_load_error(self, tmp_path, small_table, capsys):
        _, sp = small_table
        dp = tmp_path / "nan.csv"
        dp.write_text("a,0.1,0\nb,nan,1\na,0.3,0\n")
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "zscore", "--out", str(out)])
        assert code == 2
        assert "line 2: non-finite number 'nan' for 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_contextual_requires_context(self, tmp_path, small_table):
        dp, sp = small_table
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_contextual_by_group(self, tmp_path, small_table):
        dp, sp = small_table
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "g", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_unknown_context_is_usage_error(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "nosuch",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "nosuch" in capsys.readouterr().err

    def test_one_bin_is_usage_error(self, tmp_path, continuous_context_table, capsys):
        dp, sp = continuous_context_table
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "c", "--bins", "1",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "--bins" in capsys.readouterr().err

    def test_more_bins_than_values_is_precondition(self, tmp_path, continuous_context_table,
                                                   capsys):
        dp, sp = continuous_context_table
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "c", "--bins", "4",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "distinct values" in capsys.readouterr().err

    def test_binned_continuous_context(self, tmp_path, continuous_context_table):
        dp, sp = continuous_context_table
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "c", "--bins", "3",
                         "--out", str(out)])
        assert code == 0
        assert data.load_table(out, sp).n_rows == 20


class TestParser:
    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "taxonomy" in capsys.readouterr().out

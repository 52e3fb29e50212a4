import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxclass import cli, data, harness, preprocess

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


def swap_first_columns(csv_path, schema_path, out_base):
    """Write a copy of a table and its sidecar with the first two columns
    swapped: the same data under a reordered schema."""
    entries = json.loads(Path(schema_path).read_text())
    entries[0], entries[1] = entries[1], entries[0]
    lines = []
    for line in Path(csv_path).read_text().splitlines():
        cells = line.split(",")
        cells[0], cells[1] = cells[1], cells[0]
        lines.append(",".join(cells))
    out_csv, out_schema = out_base.with_suffix(".csv"), out_base.with_suffix(".schema.json")
    out_csv.write_text("\n".join(lines) + "\n")
    out_schema.write_text(json.dumps(entries))
    return out_csv, out_schema


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

    @pytest.mark.parametrize("flags", [["--schema", "s.json"], ["--bins", "3"],
                                       ["--schema", "", "--bins", "3"]])
    def test_spec_refuses_the_data_only_flags(self, spec_file, flags, capsys):
        assert cli.main(["taxonomy", "--spec", str(spec_file), *flags]) == 1
        assert capsys.readouterr() == ("", "taxonomy: --schema and --bins apply only to --data\n")

    def test_data_requires_schema(self, small_table):
        dp, _ = small_table
        assert cli.main(["taxonomy", "--data", str(dp)]) == 1

    def test_missing_spec_file(self, tmp_path):
        assert cli.main(["taxonomy", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_missing_data_file(self, tmp_path, small_table, capsys):
        _, sp = small_table
        dp = tmp_path / "nope.csv"
        assert cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp)]) == 2
        assert capsys.readouterr().err == f"taxonomy: [Errno 2] No such file or directory: '{dp}'\n"

    @pytest.mark.parametrize("variables, tuples", [([], [[]]), (["c", "c"], [["0", "0"]])])
    def test_spec_without_distinct_variables_is_load_error(self, tmp_path, variables, tuples,
                                                           capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "variables": [{"name": v, "values": ["0"]} for v in variables],
            "probabilities": [{"tuple": t, "prob": 1.0} for t in tuples],
        }))
        assert cli.main(["taxonomy", "--spec", str(p)]) == 2
        assert f"cannot load {p}" in capsys.readouterr().err

    def test_spec_with_a_repeated_tuple_is_load_error(self, tmp_path, capsys):
        # the repeated entry would otherwise overwrite the first: probabilities summing to 1.5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "variables": [{"name": v, "values": ["0", "1"]} for v in ("c", "x")],
            "probabilities": [{"tuple": t, "prob": 0.5}
                              for t in (["0", "0"], ["1", "1"], ["0", "0"])],
        }))
        assert cli.main(["taxonomy", "--spec", str(p)]) == 2
        err = f'taxonomy: cannot load {p}: repeated tuple ["0", "0"]\n'
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("text, message", [
        ("[]", "missing key 'variables' in []"),
        ("{}", "missing key 'variables' in {}"),
    ])
    def test_spec_that_is_no_spec_object_is_load_error(self, tmp_path, text, message, capsys):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["taxonomy", "--spec", str(p)]) == 2
        assert capsys.readouterr() == ("", f"taxonomy: cannot load {p}: {message}\n")

    @pytest.mark.parametrize("entry, key, value, message", [
        ("variables", "values", None, 'missing key \'values\' in {"name": "x1"}'),
        ("probabilities", "prob", "null", "wrong JSON type for 'prob': null"),
        ("probabilities", "prob", '"half"', 'wrong JSON type for \'prob\': "half"'),
        ("probabilities", "tuple", '[["0"], "0", "0"]',
         'wrong JSON type for \'tuple\': [["0"], "0", "0"]'),
    ], ids=["no-values", "null-prob", "text-prob", "nested-symbol"])
    def test_spec_entry_of_the_wrong_shape_is_load_error(self, tmp_path, entry, key, value,
                                                         message, capsys):
        doc = json.loads(worked_spec().to_json())
        target = doc[entry][1]
        if value is None:
            del target[key]
        else:
            target[key] = json.loads(value)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["taxonomy", "--spec", str(p)]) == 2
        assert capsys.readouterr() == ("", f"taxonomy: cannot load {p}: {message}\n")

    def test_continuous_needs_bins(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["taxonomy", "--data", str(dp), "--schema", str(sp)])
        assert code == 3
        assert "--bins" in capsys.readouterr().err

    def test_bins_without_continuous_features(self, tmp_path, capsys):
        data.write_table(data.sample_from(worked_spec(), 50, 0), tmp_path / "d.csv",
                         tmp_path / "d.schema.json")
        code = cli.main(["taxonomy", "--data", str(tmp_path / "d.csv"),
                         "--schema", str(tmp_path / "d.schema.json"), "--bins", "3"])
        assert code == 3
        assert capsys.readouterr() == (
            "", "taxonomy: --bins needs a continuous feature to discretize\n")

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

    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.5"])
    def test_non_finite_or_negative_eps_is_usage_error(self, spec_file, tmp_path, eps, capsys):
        out = tmp_path / "verdict.json"
        code = cli.main(["taxonomy", "--spec", str(spec_file), "--eps", eps, "--json", str(out)])
        assert code == 1
        assert "finite tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_below_the_sum_tolerance_is_usage_error(self, tmp_path, capsys):
        # ten tuples of probability 0.1 sum to 0.9999999999999999, x1 has one
        # symbol and x2 is independent of the class: at eps 0 that rounding
        # labelled x1 primary and x2 contextual
        tuples = [(c, "a", v) for c in "01" for v in "abcde"]
        dist = data.JointDistribution(("c", "x1", "x2"), (("0", "1"), ("a",), tuple("abcde")),
                                      {t: 0.1 for t in tuples})
        spec, out = tmp_path / "tenths.json", tmp_path / "verdict.json"
        spec.write_text(dist.to_json(), encoding="utf-8")
        assert cli.main(["taxonomy", "--spec", str(spec), "--eps", "0"]) == 1
        assert "finite tolerance >= 1e-12" in capsys.readouterr().err
        code = cli.main(["taxonomy", "--spec", str(spec), "--eps", "1e-12", "--json", str(out)])
        assert code == 0
        labels = json.loads(out.read_text(encoding="utf-8"))["labels"]
        assert labels == {"x1": "irrelevant", "x2": "irrelevant"}

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

    def test_vowel_training_rows_only_is_load_error(self, tmp_path, capsys):
        lines = make_vowel_text().splitlines()
        p = tmp_path / "v0.data"
        p.write_text("\n".join(l for l in lines if l.startswith("0 ")) + "\n")
        assert cli.main(["run-grid", "--dataset", "vowel", "--train", str(p)]) == 2
        captured = capsys.readouterr()
        assert f"{p}: no test rows (flag 1)" in captured.err
        assert captured.out == ""

    def test_missing_files_without_env(self, monkeypatch, capsys):
        monkeypatch.delenv("CTXCLASS_DATA_DIR", raising=False)
        assert cli.main(["run-grid", "--dataset", "vowel"]) == 2
        assert "CTXCLASS_DATA_DIR" in capsys.readouterr().err

    def test_missing_hepatitis_file_without_env(self, monkeypatch, capsys):
        monkeypatch.delenv("CTXCLASS_DATA_DIR", raising=False)
        assert cli.main(["run-grid", "--dataset", "hepatitis"]) == 2
        assert capsys.readouterr().err == (
            "run-grid: hepatitis file not found; pass --data or set CTXCLASS_DATA_DIR\n")

    def test_too_few_hepatitis_rows_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "hepatitis.data"
        p.write_text("\n".join(make_hepatitis_text().splitlines()[:5]) + "\n")
        assert cli.main(["run-grid", "--dataset", "hepatitis", "--data", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "run-grid: n_train must be in (0, 5), got 100\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("flag", ["--shift", "--noise"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_shift_and_noise_are_usage_errors(self, tmp_path, flag,
                                                                      value, capsys):
        base = tmp_path / "pair"
        assert cli.main(["synth", flag, value, "--out", str(base)]) == 1
        assert "finite and nonnegative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("flag", ["--shift", "--noise"])
    def test_rows_that_would_not_be_finite_are_usage_errors(self, tmp_path, flag, capsys):
        base = tmp_path / "pair"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            assert cli.main(["synth", flag, "1e308", "--out", str(base)]) == 1
        assert capsys.readouterr().err == (
            "synth: planted rows would not be finite: shift or noise too large\n")
        assert list(tmp_path.iterdir()) == []


class TestCompareNormalizers:
    def test_synthetic_default(self, capsys):
        assert cli.main(["compare-normalizers", "--noise", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "contextual-linear" in out and "nn" in out

    @pytest.mark.parametrize("flag", ["--shift", "--noise"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_shift_and_noise_are_usage_errors(self, flag, value,
                                                                      capsys):
        assert cli.main(["compare-normalizers", flag, value]) == 1
        assert "finite and nonnegative" in capsys.readouterr().err

    def test_rows_that_would_not_be_finite_are_usage_errors(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["compare-normalizers", "--shift", "1e308"]) == 1
        assert "planted rows would not be finite" in capsys.readouterr().err

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

    def test_reordered_test_schema_is_load_error(self, tmp_path, capsys):
        base = tmp_path / "pair"
        assert cli.main(["synth", "--out", str(base)]) == 0
        test_csv, test_schema = swap_first_columns(
            base.with_suffix(".test.csv"), base.with_suffix(".test.schema.json"),
            tmp_path / "swapped")
        train_schema = base.with_suffix(".train.schema.json")
        code = cli.main(
            ["compare-normalizers",
             "--train", str(base.with_suffix(".train.csv")), "--train-schema", str(train_schema),
             "--test", str(test_csv), "--test-schema", str(test_schema)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{train_schema} and {test_schema} describe different schemas" in err

    def test_pruned_search_leaves_the_reports_byte_identical(self, tmp_path, monkeypatch, capsys):
        # 600 reference rows: above preprocess._NN_PRUNE_ROWS, so the nn
        # classifier prunes its search; then the same with the full search
        base = tmp_path / "pair"
        assert cli.main(["synth", "--train-rows", "600", "--test-rows", "600",
                         "--out", str(base)]) == 0
        args = ["compare-normalizers"] + [
            a for part in ("train", "test") for a in (
                f"--{part}", str(base.with_suffix(f".{part}.csv")),
                f"--{part}-schema", str(base.with_suffix(f".{part}.schema.json")))]
        searches, search = [], preprocess._pruned_search
        monkeypatch.setattr(preprocess, "_pruned_search",
                            lambda *a: searches.append(search(*a)) or searches[-1])
        assert cli.main(args + ["--out", str(tmp_path / "pruned")]) == 0
        assert True in searches
        monkeypatch.setattr(preprocess, "_NN_PRUNE_ROWS", 600)
        assert cli.main(args + ["--out", str(tmp_path / "full")]) == 0
        for suffix in (".txt", ".csv"):
            pruned, full = (tmp_path / f"{name}{suffix}" for name in ("pruned", "full"))
            assert pruned.read_bytes() == full.read_bytes()

    def test_discrete_context_is_runtime_error_that_names_it(self, small_table, capsys):
        dp, sp = small_table
        code = cli.main(["compare-normalizers", "--train", str(dp), "--train-schema", str(sp),
                         "--test", str(dp), "--test-schema", str(sp)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "compare-normalizers: context feature 'g' is discrete; "
            "contextual-nn and contextual-linear need a continuous context\n")

    def test_empty_test_set_is_precondition(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = cli.main(["compare-normalizers", "--train", str(dp), "--train-schema", str(sp),
                         "--test", str(empty), "--test-schema", str(sp)])
        assert code == 3
        assert "test set has no rows" in capsys.readouterr().err


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

    def test_decode_error_names_the_file_offset(self, tmp_path, small_table, capsys):
        _, sp = small_table
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,0.5,1\n" * 2250 + b"\xff,1,0\n")  # 18,006 bytes, 0xff at 18,000
        code = cli.main(["impute", "--data", str(bad), "--schema", str(sp),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "can't decode byte 0xff in position 18000:" in capsys.readouterr().err

    def test_reordered_train_schema_is_load_error(self, tmp_path, small_table, capsys):
        dp, sp = small_table
        holed = tmp_path / "holed.csv"
        holed.write_text("a,?,1\n" + dp.read_text())
        train_csv, train_schema = swap_first_columns(dp, sp, tmp_path / "swapped")
        out = tmp_path / "filled.csv"
        code = cli.main(["impute", "--data", str(holed), "--schema", str(sp),
                         "--train", str(train_csv), "--train-schema", str(train_schema),
                         "--out", str(out)])
        assert code == 2
        assert f"{train_schema} and {sp} describe different schemas" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_data_is_precondition(self, tmp_path, small_table, capsys):
        _, sp = small_table
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = cli.main(["impute", "--data", str(empty), "--schema", str(sp),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "the training set is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("train, target, message", [
        # p spans 2e308: its present cell would scale to NaN and be overwritten
        ("a,1e308,1\na,-1e308,2\na,0,3\n", "a,1e308,?\n",
         "impute: feature 'p' spans a training range too wide to scale\n"),
        # p scales to inf: every similarity is -inf, and q would stay MISSING
        ("a,-1e308,?\na,-0.9e308,5\n", "a,1e308,?\n",
         "impute: feature 'p' has a cell too far outside its training range to scale\n"),
    ])
    def test_a_feature_that_cannot_be_scaled_is_refused(self, tmp_path, train, target, message,
                                                        capsys):
        sp = tmp_path / "s.json"
        sp.write_text(
            '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a"]},\n'
            ' {"name": "p", "role": "primary", "kind": "continuous"},\n'
            ' {"name": "q", "role": "primary", "kind": "continuous"}]\n')
        train_csv, target_csv, out = tmp_path / "train.csv", tmp_path / "target.csv", tmp_path / "o"
        train_csv.write_text(train)
        target_csv.write_text(target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            assert cli.main(["impute", "--data", str(target_csv), "--schema", str(sp),
                             "--train", str(train_csv), "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", message)
        assert not out.exists()


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

    def test_output_reloads_through_its_own_sidecar(self, tmp_path, capsys):
        # a discrete primary comes out as continuous codes, which the input's
        # sidecar would refuse as symbols of q
        sp = tmp_path / "s.json"
        sp.write_text(
            '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
            ' {"name": "p", "role": "primary", "kind": "continuous"},\n'
            ' {"name": "q", "role": "primary", "kind": "discrete", "alphabet": ["u", "v"]}]\n')
        dp = tmp_path / "t.csv"
        dp.write_text("a,0.5,u\nb,?,v\na,1.5,u\nb,2,?\n")
        out, filled = tmp_path / "n.csv", tmp_path / "i.csv"
        assert cli.main(["normalize", "--data", str(dp), "--schema", str(sp), "--mode", "zscore",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        normalized = data.load_table(out, tmp_path / "n.schema.json")
        assert [f.kind for f in normalized.schema] == ["discrete", "continuous", "continuous"]
        assert cli.main(["impute", "--data", str(out), "--schema", str(tmp_path / "n.schema.json"),
                         "--out", str(filled)]) == 0
        assert data.load_table(filled, tmp_path / "n.schema.json").values.tolist() == \
            normalized.values.tolist()

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

    def test_continuous_context_without_bins_is_precondition(self, tmp_path,
                                                             continuous_context_table, capsys):
        dp, sp = continuous_context_table
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "c",
                         "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err == "normalize: continuous context requires --bins\n"

    def test_entirely_missing_context_is_runtime_error(self, tmp_path, small_table, capsys):
        _, sp = small_table
        dp = tmp_path / "gmiss.csv"
        dp.write_text("".join(f"{'a' if i % 2 else 'b'},{i / 10},?\n" for i in range(20)))
        out = tmp_path / "o.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "g", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            "normalize: feature 'g' is entirely MISSING in the training set\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, loads, code, message", [
        (["--mode", "zscore", "--context", "g"], False, 1,
         "--context and --bins apply only to --mode contextual"),
        (["--bins", "5"], False, 1, "--context and --bins apply only to --mode contextual"),
        (["--mode", "contextual", "--context", "cls"], True, 1, "'cls' is not a contextual feature"),
        (["--mode", "contextual", "--context", "x", "--bins", "3"], True, 1,
         "'x' is not a contextual feature"),
        (["--mode", "contextual", "--context", "g", "--bins", "3"], True, 3,
         "--bins needs a continuous context to discretize"),
    ], ids=["context-without-contextual", "bins-without-contextual", "class-as-context",
            "primary-as-context", "bins-with-a-discrete-context"])
    def test_flags_and_contexts_the_mode_cannot_use_are_refused(self, tmp_path, small_table,
                                                                 flags, loads, code, message,
                                                                 capsys):
        dp, sp = small_table
        # the mode's own flags are checked before a (here absent) data file is read
        data_path = dp if loads else tmp_path / "absent.csv"
        out = tmp_path / "o.csv"
        assert cli.main(["normalize", "--data", str(data_path), "--schema", str(sp), *flags,
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == f"normalize: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, flags", [
        ("contextual", ["--context", "condition", "--bins", "4"]),
        ("zscore", []),
    ])
    def test_an_overflowing_stage_is_refused(self, tmp_path, mode, flags, capsys):
        # finite cells up to about 4.2e307, whose column sums overflow
        base = tmp_path / "b"
        assert cli.main(["synth", "--shift", "5e307", "--out", str(base)]) == 0
        capsys.readouterr()
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            code = cli.main(["normalize", "--data", str(base.with_suffix(".train.csv")),
                             "--schema", str(base.with_suffix(".train.schema.json")),
                             "--mode", mode, *flags, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            f"normalize: {mode} normalization turned finite cells of feature 'p1' non-finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, cell, message", [
        # the squared deviations overflow, so the deviation is inf and every z-score 0
        ("normalize", "1e160",
         "normalize: zscore normalization fitted a non-finite statistic of feature 'p'\n"),
        ("compare-normalizers", "1e300",
         "compare-normalizers: mlr fit would overflow the column sums of feature 'p'\n"),
    ])
    def test_a_fit_that_overflows_is_refused(self, tmp_path, command, cell, message, capsys):
        sp = tmp_path / "s.json"
        sp.write_text(
            '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
            ' {"name": "c", "role": "contextual", "kind": "continuous"},\n'
            ' {"name": "p", "role": "primary", "kind": "continuous"},\n'
            ' {"name": "q", "role": "primary", "kind": "discrete", "alphabet": ["u", "v"]}]\n')
        dp = tmp_path / "t.csv"
        dp.write_text(f"a,1,{cell},u\nb,2,-{cell},v\na,3,-{cell},u\n")
        out = tmp_path / "out"
        argv = {"normalize": ["--data", str(dp), "--schema", str(sp), "--mode", "zscore",
                              "--out", str(out)],
                "compare-normalizers": ["--train", str(dp), "--train-schema", str(sp),
                                        "--test", str(dp), "--test-schema", str(sp),
                                        "--out", str(out)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            assert cli.main([command, *argv]) == 4
        assert capsys.readouterr() == ("", message)
        assert sorted(tmp_path.iterdir()) == sorted([dp, sp])  # no file written

    def test_binned_continuous_context(self, tmp_path, continuous_context_table):
        dp, sp = continuous_context_table
        out = tmp_path / "norm.csv"
        code = cli.main(["normalize", "--data", str(dp), "--schema", str(sp),
                         "--mode", "contextual", "--context", "c", "--bins", "3",
                         "--out", str(out)])
        assert code == 0
        assert data.load_table(out, sp).n_rows == 20


class TestExitPath:
    """Every failure reaches the user as one stderr line, "<command>: <message>",
    and its documented exit code; a file that cannot be read, decoded, parsed
    or written is code 2."""

    @pytest.fixture()
    def paths(self, tmp_path, small_table, spec_file, hepatitis_file):
        dp, sp = small_table
        bad = tmp_path / "bad.bin"  # not UTF-8: 0xff starts the second line
        bad.write_bytes(b"a,0.1,0\n\xff,0.2,1\n")
        return dict(table=dp, schema=sp, spec=spec_file, hepatitis=hepatitis_file, bad=bad,
                    out=tmp_path / "absent" / "out")

    @staticmethod
    def argv(template, paths):
        return [word.format(**paths) for word in template.split()]

    @pytest.mark.parametrize("template, printed", [
        ("synth --train-rows 20 --test-rows 20 --out {out}", ""),
        ("run-grid --dataset hepatitis --data {hepatitis} --splits 2 --out {out}", "synergy"),
        ("compare-normalizers --noise 0.05 --out {out}", "zscore"),
        ("impute --data {table} --schema {schema} --out {out}", ""),
        ("normalize --data {table} --schema {schema} --out {out}", ""),
        ("taxonomy --spec {spec} --json {out}", "primary"),
    ], ids=["synth", "run-grid", "compare-normalizers", "impute", "normalize", "taxonomy"])
    def test_unwritable_output_is_load_error(self, paths, template, printed, capsys):
        argv = self.argv(template, paths)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: [Errno 2] No such file or directory: ")
        assert captured.err.count("\n") == 1
        assert printed in captured.out  # what was printed before the write stays

    @pytest.mark.parametrize("template", [
        "taxonomy --data {bad} --schema {schema}",
        "taxonomy --data {table} --schema {bad}",
        "run-grid --dataset hepatitis --data {bad}",
        "run-grid --dataset vowel --train {bad}",
        "compare-normalizers --train {bad} --train-schema {schema} --test {table} "
        "--test-schema {schema}",
        "impute --data {bad} --schema {schema} --out {out}",
        "normalize --data {bad} --schema {schema} --out {out}",
    ], ids=["taxonomy-data", "taxonomy-schema", "run-grid-hepatitis", "run-grid-vowel",
            "compare-normalizers", "impute", "normalize"])
    def test_undecodable_input_is_load_error(self, paths, template, capsys):
        argv = self.argv(template, paths)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: {paths['bad']}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    @pytest.mark.parametrize("template", [
        "impute --data {big} --schema {schema} --out {out}",
        "normalize --data {big} --schema {schema} --out {out}",
        "taxonomy --data {big} --schema {schema}",
        "compare-normalizers --train {table} --train-schema {schema} --test {big} "
        "--test-schema {schema}",
    ], ids=["impute", "normalize", "taxonomy-data", "compare-normalizers"])
    def test_field_over_the_csv_limit_is_load_error(self, paths, tmp_path, template, capsys):
        big = tmp_path / "big.csv"
        big.write_text(f"a,0.1,0\nb,{'1' * (csv.field_size_limit() + 1)},1\n")
        argv = self.argv(template, dict(paths, big=big))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"{argv[0]}: {big}: line 2: field larger than field limit "
            f"({csv.field_size_limit()})\n")

    @pytest.mark.parametrize("argv", [["synth", "--out", "{tmp}/x"], ["compare-normalizers"]],
                             ids=["synth", "compare-normalizers"])
    def test_value_error_outside_a_mapped_region_is_not_reported(self, argv, tmp_path,
                                                                  monkeypatch):
        # a ValueError that no command maps to an exit code is a bug, so it
        # keeps its traceback
        def broken(params, seed):
            raise ValueError("a bug")

        monkeypatch.setattr(data, "plant_context_dataset", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli.main([a.format(tmp=tmp_path) for a in argv])


class TestParser:
    def test_normalizer_names_come_from_the_menu(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        mode = next(a for a in commands.choices["normalize"]._actions if a.dest == "mode")
        assert set(mode.choices) <= set(preprocess.NORMALIZERS)
        assert set(harness.NORMALIZER_MENU) <= set(preprocess.NORMALIZERS)

    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "taxonomy" in capsys.readouterr().out


# a fresh interpreter that runs the given commands through cli.main and prints
# their exit codes and every scipy module then loaded
_SCIPY_GUARD = """import json, sys
from ctxclass import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_commands_run_without_scipy(vowel_file, hepatitis_file, spec_file, tmp_path):
    pair = tmp_path / "pair"  # written by the synth command, read by the ones after it
    train_csv = pair.with_suffix(".train.csv")
    train_schema = pair.with_suffix(".train.schema.json")
    commands = [
        ["run-grid", "--dataset", "vowel", "--train", str(vowel_file), "--classifier", "nn"],
        ["run-grid", "--dataset", "vowel", "--train", str(vowel_file), "--classifier", "mlr"],
        ["run-grid", "--dataset", "hepatitis", "--data", str(hepatitis_file), "--splits", "3",
         "--classifier", "nn"],
        ["run-grid", "--dataset", "hepatitis", "--data", str(hepatitis_file), "--splits", "3",
         "--classifier", "mlr", "--out", str(tmp_path / "hep")],
        ["compare-normalizers", "--out", str(tmp_path / "norm")],
        ["taxonomy", "--spec", str(spec_file)],
        ["synth", "--train-rows", "40", "--test-rows", "40", "--out", str(pair)],
        ["normalize", "--data", str(train_csv), "--schema", str(train_schema),
         "--mode", "contextual", "--context", "condition", "--bins", "4",
         "--out", str(tmp_path / "normalized.csv")],
        ["impute", "--data", str(train_csv), "--schema", str(train_schema),
         "--out", str(tmp_path / "imputed.csv")],
        ["taxonomy", "--data", str(train_csv), "--schema", str(train_schema), "--bins", "3"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=300, check=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert scipy_modules == []


def test_commands_name_utf8_in_every_locale(hepatitis_file, spec_file, tmp_path):
    # a text file opened in the locale's encoding raises EncodingWarning, here an error
    pair = tmp_path / "pair"
    train_csv, train_schema = pair.with_suffix(".train.csv"), pair.with_suffix(".train.schema.json")
    table = ["--data", str(train_csv), "--schema", str(train_schema)]
    commands = [
        ["synth", "--train-rows", "40", "--test-rows", "40", "--out", str(pair)],
        ["compare-normalizers", "--out", str(tmp_path / "norm")],
        ["impute", *table, "--out", str(tmp_path / "imputed.csv")],
        ["normalize", *table, "--out", str(tmp_path / "normalized.csv")],
        ["taxonomy", "--spec", str(spec_file), "--json", str(tmp_path / "spec.json")],
        ["taxonomy", *table, "--bins", "3", "--json", str(tmp_path / "data.json")],
        ["run-grid", "--dataset", "hepatitis", "--data", str(hepatitis_file), "--splits", "2",
         "--out", str(tmp_path / "hep")],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", "import sys; from ctxclass import cli; sys.exit(cli.main(sys.argv[1:]))",
             *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv[0], proc.stderr)


# cells far apart in relative terms, so that a z-score of a column is well
# conditioned; half the tables also draw cells up to the float range's end,
# whose sums and spans overflow
ORDINARY = [0.0, 0.5, 1.0, 1.5, 3.0, 7.25, 40.0, 1e6, 2.5e6]
EXTREME = [0.0, 1.0, 7.25, 1e150, 3e153, 1e300, 1e308, 1.7e308]
CONTEXT_SYMBOLS = ("0", "1", "2")


@st.composite
def contract_tables(draw):
    """A schema (one or two classes, a discrete or continuous context, one to
    three primaries of either kind) and a train and a test table for it, with
    MISSING cells or none, maybe a constant column, and test contexts that the
    training rows may not hold."""
    kinds = draw(st.lists(st.sampled_from(["continuous", "discrete"]), min_size=2, max_size=4))
    classes = draw(st.sampled_from([("a",), ("a", "b")]))
    features = [{"name": "cls", "role": "class", "kind": "discrete", "alphabet": list(classes)}]
    for i, kind in enumerate(kinds):
        feature = {"name": "ctx" if i == 0 else f"p{i}", "kind": kind,
                   "role": "contextual" if i == 0 else "primary"}
        if kind == "discrete":
            feature["alphabet"] = list(CONTEXT_SYMBOLS if i == 0 else ("u", "v"))
        features.append(feature)
    magnitudes = draw(st.sampled_from([ORDINARY, EXTREME]))
    number = st.builds(lambda sign, m: repr(sign * m), st.sampled_from([1.0, -1.0]),
                       st.sampled_from(magnitudes))

    def table(min_rows, max_rows, contexts, missing):
        cells = []
        for f in features:
            present = st.sampled_from(f["alphabet"]) if f["kind"] == "discrete" else number
            cells.append(st.sampled_from([True, True, True, False]).flatmap(
                lambda p, present=present: present if p else st.just("?"))
                if missing and f["role"] != "class" else present)
        rows = [list(row) for row in draw(st.lists(st.tuples(*cells), min_size=min_rows,
                                                   max_size=max_rows))]
        if features[1]["kind"] == "discrete":  # a training set may hold fewer groups
            for row in rows:
                row[1] = row[1] if row[1] == "?" or row[1] in contexts else contexts[0]
        return rows

    missing = draw(st.booleans())
    train = table(1, 6, draw(st.sampled_from([("0",), ("0", "1"), CONTEXT_SYMBOLS])), missing)
    test = table(1, 4, CONTEXT_SYMBOLS, missing)
    constant = draw(st.none() | st.integers(1, len(kinds)))
    if constant is not None:
        for row in train + test:
            row[constant] = train[0][constant]
    return features, train, test


class TestCommandContract:
    """Each command, on small tables that hit the degenerate cases, exits
    with a documented code; a failure writes one "<command>: ..." line and
    no file; a written table reloads and keeps what the command promises."""

    @staticmethod
    def run(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning is a failure, as is a traceback
            warnings.filterwarnings("ignore", "degenerate context design", UserWarning)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_LOAD, cli.EXIT_PRECONDITION,
                        cli.EXIT_RUNTIME)
        if code:
            assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1 and err[-1] == "\n"
        else:
            assert err == ""
        return code

    # 100 examples reach both faults the contract once missed: RuntimeWarnings
    # from impute on spans past the float range, and a normalize output that
    # the input's sidecar could not load
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(tables=contract_tables())
    def test_every_command_keeps_the_contract(self, tables, capsys):
        features, train_rows, test_rows = tables
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            sp, train, test = tmp / "t.schema.json", tmp / "train.csv", tmp / "test.csv"
            sp.write_text(json.dumps(features))
            for path, rows in ((train, train_rows), (test, test_rows)):
                path.write_text("".join(",".join(row) + "\n" for row in rows))
            source = {path: data.load_table(path, sp) for path in (train, test)}

            for target, donors in ((train, []), (test, ["--train", str(train)])):
                out = tmp / "imputed.csv"
                code = self.run(["impute", "--data", str(target), "--schema", str(sp), *donors,
                                 "--out", str(out)], capsys)
                assert out.exists() == (code == 0)
                if code == 0:
                    before, after = source[target].values, data.load_table(out, sp).values
                    present = ~np.isnan(before)
                    assert not np.isnan(after).any()
                    assert np.array_equal(after[present], before[present])
                    out.unlink()

            for mode in ("minmax", "zscore", "percentile", "contextual"):
                out, sidecar = tmp / f"{mode}.csv", tmp / f"{mode}.schema.json"
                flags = []
                if mode == "contextual":
                    flags = ["--context", "ctx"] + (
                        ["--bins", "2"] if features[1]["kind"] == "continuous" else [])
                code = self.run(["normalize", "--data", str(train), "--schema", str(sp),
                                 "--mode", mode, *flags, "--out", str(out)], capsys)
                assert out.exists() == sidecar.exists() == (code == 0)
                if code == 0:
                    written = data.load_table(out, sidecar)
                    assert written.n_rows == source[train].n_rows
                    for j in written.schema.primary_indices if mode == "zscore" else ():
                        column = written.values[:, j]
                        if column.min() < column.max():
                            assert abs(column.mean()) <= 1e-9
                            assert abs(column.std() - 1.0) <= 1e-9

            self.run(["compare-normalizers", "--train", str(train), "--train-schema", str(sp),
                      "--test", str(test), "--test-schema", str(sp)], capsys)
            self.run(["taxonomy", "--data", str(train), "--schema", str(sp), "--bins", "2"],
                     capsys)


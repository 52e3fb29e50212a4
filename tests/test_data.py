import csv
import hashlib
import io
import json
import math
import os
import random
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctxclass import data
from ctxclass.data import MISSING, FeatureRole, LoadError

from conftest import make_hepatitis_text, make_vowel_text, worked_spec


class TestVowelLoader:
    def test_row_counts_and_schema(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        assert train.n_rows == 528
        assert test.n_rows == 462
        schema = train.schema
        assert schema.names[:2] == ("speaker", "sex")
        assert schema.names[-1] == "vowel"
        assert len(schema.primary_indices) == 10
        assert len(schema.class_feature.alphabet) == 11
        roles = [schema.features[i].role for i in (0, 1)]
        assert roles == [FeatureRole.CONTEXTUAL, FeatureRole.CONTEXTUAL]

    def test_speaker_sets_disjoint(self, synthetic_vowel_pair):
        train, test = synthetic_vowel_pair
        assert not set(train.column(0)) & set(test.column(0))

    def test_empty_file_is_error(self, tmp_path):
        p = tmp_path / "empty.data"
        p.write_text("")
        with pytest.raises(LoadError):
            data.load_vowel(p, p)

    def test_malformed_row_names_line(self, tmp_path):
        text = make_vowel_text().splitlines()
        text[4] = text[4] + " 9.9"  # an 11th real
        p = tmp_path / "bad.data"
        p.write_text("\n".join(text))
        with pytest.raises(LoadError, match="line 5"):
            data.load_vowel(p, p)

    def test_non_finite_number_names_line_and_feature(self, tmp_path):
        text = make_vowel_text().splitlines()
        fields = text[2].split()
        fields[5] = "nan"  # the third real, f3
        text[2] = " ".join(fields)
        p = tmp_path / "nan.data"
        p.write_text("\n".join(text))
        with pytest.raises(LoadError, match=r"line 3: non-finite number 'nan' for 'f3'"):
            data.load_vowel(p, p)

    def test_class_outside_alphabet_names_line(self, tmp_path):
        text = make_vowel_text().splitlines()
        fields = text[3].split()
        fields[13] = "11"  # vowels are 0-10
        text[3] = " ".join(fields)
        p = tmp_path / "bad.data"
        p.write_text("\n".join(text))
        with pytest.raises(LoadError, match=r"line 4: symbol '11' not valid for 'vowel'"):
            data.load_vowel(p, p)

    def test_rows_are_selected_by_flag(self, vowel_file, tmp_path):
        lines = make_vowel_text().splitlines()
        train_only, test_only = tmp_path / "v0.data", tmp_path / "v1.data"
        train_only.write_text("\n".join(l for l in lines if l.startswith("0 ")))
        test_only.write_text("\n".join(l for l in lines if l.startswith("1 ")))
        assert data.load_vowel(train_only, test_only) == data.load_vowel(vowel_file, vowel_file)

    @pytest.mark.parametrize("flag", ["0", "1"])
    def test_side_without_its_flag_is_error(self, tmp_path, flag):
        # the training rows alone must not be scored as their own test set
        lines = make_vowel_text().splitlines()
        p = tmp_path / "one-flag.data"
        p.write_text("\n".join(l for l in lines if l.startswith(f"{flag} ")))
        side = "test rows (flag 1)" if flag == "0" else "training rows (flag 0)"
        with pytest.raises(LoadError, match=re.escape(f"one-flag.data: no {side}")):
            data.load_vowel(p, p)

    def test_wrong_counts_warn_not_error(self, tmp_path):
        lines = make_vowel_text().splitlines()
        lines = lines[:100] + lines[-100:]  # 100 training and 100 test rows
        p = tmp_path / "short.data"
        p.write_text("\n".join(lines))
        with pytest.warns(UserWarning):
            data.load_vowel(p, p)


class TestHepatitisLoader:
    def test_row_count_and_roles(self, synthetic_hepatitis):
        ds = synthetic_hepatitis
        assert ds.n_rows == 155
        schema = ds.schema
        assert schema.class_feature.name == "class"
        assert schema.class_feature.alphabet == ("die", "live")
        assert set(ds.class_labels()) <= {"die", "live"}
        ctx_names = {schema.features[i].name for i in schema.contextual_indices}
        assert ctx_names == {"age", "sex"}
        assert len(schema.primary_indices) == 17

    def test_missing_cells_preserved(self, synthetic_hepatitis):
        assert synthetic_hepatitis.missing_count() > 0

    def test_no_question_marks_means_no_missing(self, tmp_path):
        p = tmp_path / "full.data"
        p.write_text(make_hepatitis_text(missing_rate=0.0))
        assert data.load_hepatitis(p).missing_count() == 0

    def test_unknown_symbol_is_error(self, tmp_path):
        lines = make_hepatitis_text().splitlines()
        fields = lines[0].split(",")
        fields[2] = "7"  # sex only allows 1/2
        lines[0] = ",".join(fields)
        p = tmp_path / "bad.data"
        p.write_text("\n".join(lines))
        with pytest.raises(LoadError):
            data.load_hepatitis(p)


    def test_missing_class_names_line(self, tmp_path):
        lines = make_hepatitis_text().splitlines()
        lines[2] = "?," + lines[2].split(",", 1)[1]
        p = tmp_path / "bad.data"
        p.write_text("\n".join(lines))
        with pytest.raises(LoadError, match=r"line 3: class cell is MISSING"):
            data.load_hepatitis(p)

    def test_non_finite_number_names_line_and_feature(self, tmp_path):
        lines = make_hepatitis_text(missing_rate=0.0).splitlines()
        fields = lines[1].split(",")
        fields[14] = "inf"  # bilirubin
        lines[1] = ",".join(fields)
        p = tmp_path / "inf.data"
        p.write_text("\n".join(lines))
        with pytest.raises(LoadError, match=r"line 2: non-finite number 'inf' for 'bilirubin'"):
            data.load_hepatitis(p)


class TestGenericTable:
    SCHEMA = (
        '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},\n'
        ' {"name": "x", "role": "primary", "kind": "continuous"},\n'
        ' {"name": "g", "role": "contextual", "kind": "discrete", "alphabet": ["0", "1"]}]'
    )

    def test_load_three_columns(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        (tmp_path / "t.csv").write_text("a,1.5,0\nb,2.5,1\n")
        ds = data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert ds.n_rows == 2
        assert ds.rows[0] == ("a", 1.5, "0")

    @pytest.mark.parametrize("cell", ["?", ""])
    def test_missing_class_names_line(self, tmp_path, cell):
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        (tmp_path / "t.csv").write_text(f"a,1.5,0\n{cell},2.5,1\n")
        with pytest.raises(LoadError, match=r"line 2: class cell is MISSING"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    def test_continuous_class_is_load_error(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(self.SCHEMA.replace(
            '"kind": "discrete", "alphabet": ["a", "b"]', '"kind": "continuous"'))
        with pytest.raises(LoadError, match="class feature 'cls' must be discrete"):
            data.load_schema(tmp_path / "t.schema.json")

    def test_column_count_mismatch(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        (tmp_path / "t.csv").write_text("a,1.5\n")
        with pytest.raises(LoadError):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    def test_faulty_cell_before_a_csv_error_is_reported(self, tmp_path):
        # the whole file is read before any cell is parsed; a line the csv
        # reader rejects (a field over its size limit) still only counts if
        # no earlier cell is faulty
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        big = "1" * (csv.field_size_limit() + 1)
        (tmp_path / "t.csv").write_text(f"a,x,0\nb,{big},1\n")
        with pytest.raises(LoadError, match="line 1: bad number 'x' for 'x'"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")
        (tmp_path / "t.csv").write_text(f"a,1.5,0\nb,{big},1\n")
        with pytest.raises(LoadError, match=r"t\.csv: line 2: field larger than field limit"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_number_names_line_and_feature(self, tmp_path, cell):
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        (tmp_path / "t.csv").write_text(f"a,1.5,0\nb,{cell},1\n")
        with pytest.raises(LoadError, match=rf"line 2: non-finite number '{cell}' for 'x'"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    def test_numeric_symbols_load_as_discrete(self, tmp_path):
        schema = (
            '[{"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["1", "2"]},'
            ' {"name": "x", "role": "primary", "kind": "discrete", "alphabet": ["3", "4"]}]'
        )
        (tmp_path / "t.schema.json").write_text(schema)
        (tmp_path / "t.csv").write_text("1,3\n2,4\n")
        ds = data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert ds.rows[0] == ("1", "3")

    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(7)
        rows = [
            ("a" if rng.random() < 0.5 else "b", rng.uniform(-1e6, 1e6), str(rng.randrange(2)))
            for _ in range(50)
        ]
        rows[3] = (rows[3][0], MISSING, rows[3][2])
        (tmp_path / "t.schema.json").write_text(self.SCHEMA)
        schema_obj = data.load_schema(tmp_path / "t.schema.json")
        ds = data.Dataset.build(schema_obj, rows)
        data.write_table(ds, tmp_path / "out.csv", tmp_path / "out.schema.json")
        back = data.load_table(tmp_path / "out.csv", tmp_path / "out.schema.json")
        assert back.rows == ds.rows  # floats round-trip bit-exactly via repr

    def test_round_trip_of_symbols_that_need_quoting(self, tmp_path):
        symbols = ("a,b", 'q"t', "l\nm", "r\rs", 'x,"y"\r\nz', "plain")
        schema = data.FeatureSchema((
            data.Feature("cls", FeatureRole.CLASS, "discrete", symbols),
            data.Feature("x", FeatureRole.PRIMARY, "continuous"),
            data.Feature("g", FeatureRole.CONTEXTUAL, "discrete", symbols[::-1]),
        ))
        rows = [(symbols[k % 6], k / 3, symbols[(k * 5) % 6]) for k in range(12)]
        ds = data.Dataset.build(schema, rows)
        data.write_table(ds, tmp_path / "out.csv", tmp_path / "out.schema.json")
        assert data.load_table(tmp_path / "out.csv", tmp_path / "out.schema.json") == ds

    SYMBOL_SCHEMA = json.dumps([
        {"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},
        {"name": "x", "role": "primary", "kind": "continuous"},
        {"name": "g", "role": "contextual", "kind": "discrete", "alphabet": ["0", "l\nm"]},
    ])

    @pytest.mark.parametrize("text, line", [
        ('a,1,"l\nm"\nb,x,0\n', 3),  # a fault after a record of two lines
        ('a,1,"l\nm"\n\na,2,"l\nm"\nb,2,0\nb,x,0\n', 7),
        ('a,1,0\nb,x,"l\nm"\n', 2),  # a fault in a record of two lines
    ])
    def test_faults_after_a_multi_line_record_name_their_file_line(self, tmp_path, text, line):
        (tmp_path / "t.schema.json").write_text(self.SYMBOL_SCHEMA)
        (tmp_path / "t.csv").write_text(text)
        with pytest.raises(LoadError, match=rf"t\.csv: line {line}: bad number 'x' for 'x'$"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    def test_csv_error_after_a_multi_line_record_names_its_file_line(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(self.SYMBOL_SCHEMA)
        big = "1" * (csv.field_size_limit() + 1)
        (tmp_path / "t.csv").write_text(f'a,1,"l\nm"\nb,{big},0\n')
        with pytest.raises(LoadError, match=r"t\.csv: line 3: field larger than field limit"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")


def _with_undecodable_line(text: str, index: int) -> bytes:
    """The text as bytes with 0xff, which is not UTF-8, starting one line."""
    lines = text.encode().splitlines()
    lines[index] = b"\xff" + lines[index]
    return b"\n".join(lines) + b"\n"


class TestUndecodableInput:
    """A file that does not decode is a LoadError naming the file; LoadError
    is no ValueError, so no caller mistakes it for a bad parameter."""

    @staticmethod
    def expect(path):
        return pytest.raises(LoadError, match=rf"^{re.escape(str(path))}: .*can't decode byte 0xff")

    def test_load_error_is_no_value_error(self):
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, which the CLI
        # maps to other exit codes in some regions
        assert not issubclass(LoadError, ValueError)

    def test_vowel(self, tmp_path):
        p = tmp_path / "vowel.data"
        p.write_bytes(_with_undecodable_line(make_vowel_text(), 3))
        with self.expect(p):
            data.load_vowel(p, p)

    def test_hepatitis(self, tmp_path):
        p = tmp_path / "hepatitis.data"
        p.write_bytes(_with_undecodable_line(make_hepatitis_text(), 3))
        with self.expect(p):
            data.load_hepatitis(p)

    def test_table(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(TestGenericTable.SCHEMA)
        p = tmp_path / "t.csv"
        p.write_bytes(_with_undecodable_line("a,1.5,0\nb,2.5,1", 1))
        with self.expect(p):
            data.load_table(p, tmp_path / "t.schema.json")

    def test_schema_sidecar(self, tmp_path):
        p = tmp_path / "t.schema.json"
        p.write_bytes(_with_undecodable_line(TestGenericTable.SCHEMA, 1))
        (tmp_path / "t.csv").write_text("a,1.5,0\n")
        with self.expect(p):
            data.load_table(tmp_path / "t.csv", p)


class TestByteOrderMark:
    """One leading U+FEFF (the UTF-8 bytes EF BB BF) is dropped from a data
    file and a schema sidecar; decode errors still name file offsets."""

    BOM = b"\xef\xbb\xbf"

    def test_table(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(TestGenericTable.SCHEMA)
        (tmp_path / "t.csv").write_text("a,1.5,0\nb,2.5,1\n")
        (tmp_path / "bom.csv").write_bytes(self.BOM + b"a,1.5,0\nb,2.5,1\n")
        schema = tmp_path / "t.schema.json"
        assert (data.load_table(tmp_path / "bom.csv", schema)
                == data.load_table(tmp_path / "t.csv", schema))

    def test_only_one_is_dropped(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(TestGenericTable.SCHEMA)
        (tmp_path / "t.csv").write_bytes(self.BOM * 2 + b"a,1.5,0\n")
        with pytest.raises(LoadError, match=r"line 1: symbol '\\ufeffa' not valid for 'cls'$"):
            data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")

    def test_hepatitis_and_vowel(self, tmp_path):
        for name, text, load in (("h.data", make_hepatitis_text(), data.load_hepatitis),
                                 ("v.data", make_vowel_text(), lambda p: data.load_vowel(p, p))):
            (tmp_path / name).write_bytes(self.BOM + text.encode())
            (tmp_path / f"plain-{name}").write_text(text)
            assert load(tmp_path / name) == load(tmp_path / f"plain-{name}")

    def test_schema_sidecar(self, tmp_path):
        (tmp_path / "t.schema.json").write_bytes(self.BOM + TestGenericTable.SCHEMA.encode())
        assert data.load_schema(tmp_path / "t.schema.json").names == ("cls", "x", "g")

    def test_decode_error_names_the_file_offset(self, tmp_path):
        (tmp_path / "t.schema.json").write_text(TestGenericTable.SCHEMA)
        p = tmp_path / "t.csv"
        p.write_bytes(self.BOM + b"a,1.5,0\n\xff,2.5,1\n")  # 0xff at 3 + 8
        with pytest.raises(LoadError, match="can't decode byte 0xff in position 11:"):
            data.load_table(p, tmp_path / "t.schema.json")
        (tmp_path / "t.schema.json").write_bytes(self.BOM + b'[{"name": "\xff"}]')
        with pytest.raises(LoadError, match="can't decode byte 0xff in position 14:"):
            data.load_schema(tmp_path / "t.schema.json")


class TestDatasetMatrix:
    def test_values_are_read_only(self, synthetic_hepatitis):
        values = synthetic_hepatitis.values
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 1] = 0.0

    def test_constructor_freezes_the_matrix_it_is_given(self, table_spec):
        schema = table_spec.schema()
        values = np.zeros((2, len(schema)))
        ds = data.Dataset(schema, values)
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.0
        assert ds.rows == (("0", "0", "0", "0"),) * 2

    def test_codes_and_views(self):
        schema = data.FeatureSchema((
            data.Feature("c", FeatureRole.CLASS, "discrete", ("u", "v", "u")),
            data.Feature("x", FeatureRole.PRIMARY, "continuous"),
            data.Feature("g", FeatureRole.CONTEXTUAL, "discrete", ("p", "q")),
        ))
        ds = data.Dataset.build(schema, [("v", 2.5, MISSING), ("u", MISSING, "q")])
        # a repeated symbol takes its first index; NaN is MISSING
        assert np.array_equal(ds.values, [[1, 2.5, np.nan], [0, np.nan, 1]], equal_nan=True)
        assert ds.rows == (("v", 2.5, MISSING), ("u", MISSING, "q"))
        assert ds.column(2) == (MISSING, "q")
        assert ds.class_labels() == ("v", "u")
        assert ds.missing_count() == 2

    def test_shape_must_fit_schema(self, table_spec):
        with pytest.raises(ValueError, match="do not fit the schema"):
            data.Dataset(table_spec.schema(), np.zeros((3, 2)))


class TestSplitRandom:
    def test_sizes_and_partition(self, synthetic_hepatitis):
        train, test = data.split_random(synthetic_hepatitis, 100, seed=3)
        assert (train.n_rows, test.n_rows) == (100, 55)
        from collections import Counter

        assert Counter(train.rows + test.rows) == Counter(synthetic_hepatitis.rows)

    def test_deterministic(self, synthetic_hepatitis):
        a = data.split_random(synthetic_hepatitis, 100, seed=11)
        b = data.split_random(synthetic_hepatitis, 100, seed=11)
        assert a[0].rows == b[0].rows and a[1].rows == b[1].rows

    def test_different_seeds_differ(self, synthetic_hepatitis):
        a = data.split_random(synthetic_hepatitis, 100, seed=0)
        b = data.split_random(synthetic_hepatitis, 100, seed=1)
        assert a[0].rows != b[0].rows

    def test_preserves_original_order(self, synthetic_hepatitis):
        train, _ = data.split_random(synthetic_hepatitis, 100, seed=5)
        original = list(synthetic_hepatitis.rows)
        positions = [original.index(r) for r in train.rows]
        assert positions == sorted(positions)

    @pytest.mark.parametrize("n_train", [0, 155, 200])
    def test_out_of_range(self, synthetic_hepatitis, n_train):
        with pytest.raises(ValueError):
            data.split_random(synthetic_hepatitis, n_train, seed=0)


class TestSampleFrom:
    def test_tuple_frequency(self, table_spec):
        ds = data.sample_from(table_spec, 16000, seed=42)
        freq = sum(1 for r in ds.rows if r == ("0", "0", "0", "0")) / 16000
        assert abs(freq - 0.03) <= 0.01

    def test_convergence_bound(self, table_spec):
        n = 10000
        ds = data.sample_from(table_spec, n, seed=9)
        counts = {}
        for r in ds.rows:
            counts[r] = counts.get(r, 0) + 1
        for tup, p in table_spec.probs.items():
            bound = 3 * math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(tup, 0) / n - p) <= bound

    def test_point_mass(self):
        spec = data.JointDistribution(("c", "x"), (("0",), ("1",)), {("0", "1"): 1.0})
        ds = data.sample_from(spec, 25, seed=0)
        assert set(ds.rows) == {("0", "1")}

    def test_zero_rows(self, table_spec):
        ds = data.sample_from(table_spec, 0, seed=0)
        assert ds.n_rows == 0
        assert len(ds.schema) == 4

    def test_deterministic(self, table_spec):
        assert data.sample_from(table_spec, 500, 5).rows == data.sample_from(table_spec, 500, 5).rows

    def test_rows_do_not_depend_on_insertion_order(self, table_spec):
        # support rows follow probs order; the draws follow the sorted tuples
        shuffled = data.JointDistribution(table_spec.variables, table_spec.alphabets,
                                          dict(reversed(table_spec.probs.items())))
        assert shuffled.support.rows == tuple(reversed(table_spec.support.rows))
        assert data.sample_from(shuffled, 500, 3).rows == data.sample_from(table_spec, 500, 3).rows

    @pytest.mark.parametrize("seed, digest", [
        (0, "e0a2a5e4ff4ff87028dbdc9a4729e0de64082ab9f3035fd7e802bc6e60dc828b"),
        (1, "b2b8624817e4c292157a64f3456daac1e701e2b385b359c39818440871c4d5cb"),
        (2, "933f986cfd8233b511972b0bb90d7570f2cf77a45d142963d9df0bda1a7d218a"),
        (3, "fb79e4f76a15881d606e65b2f44f8c01d0da2c76d639deb81f61a59dd4e7aba5"),
    ])
    def test_rows_pinned(self, seed, digest):
        # the rows of the sorted-tuple cumulative search, one draw per row
        rows = data.sample_from(worked_spec(), 200, seed).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestJointDistributionValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            data.JointDistribution(("c",), (("0", "1"),), {("0",): 0.6, ("1",): 0.5})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            data.JointDistribution(("c",), (("0", "1"),), {("0",): 1.5, ("1",): -0.5})

    def test_rejects_out_of_alphabet_symbol(self):
        with pytest.raises(ValueError, match="not in alphabet of 'c'"):
            data.JointDistribution(("c",), (("0", "1"),), {("0",): 0.5, ("2",): 0.5})

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            data.JointDistribution(("c",), (("0", "1"),), {("0",): float("nan"), ("1",): 1.0})

    def test_rejects_duplicate_variable_names(self):
        with pytest.raises(ValueError, match="not unique"):
            data.JointDistribution(("c", "c"), (("0",), ("0",)), {("0", "0"): 1.0})

    def test_rejects_unknown_class_variable(self):
        with pytest.raises(ValueError, match="unknown class variable 'z'"):
            data.JointDistribution(("c",), (("0",),), {("0",): 1.0}, class_var="z")

    @pytest.mark.parametrize("alphabets, probs, class_var, message", [
        # a fault in an earlier tuple wins over one in a later tuple
        ((("0", "1"), ("0", "1")), {("0", "0"): -0.5, ("0", "2"): 1.5}, "",
         "probability -0.5 for ('0', '0') is negative or not a number"),
        # of two bad symbols in one tuple, the earlier column's is named
        ((("0", "1"), ("0", "1")), {("0", "0"): 0.5, ("2", "3"): 0.5}, "",
         "symbol '2' not in alphabet of 'c'"),
        # in one tuple, its symbols are checked before its probability
        ((("0", "1"), ("0", "1")), {("0", "2"): -0.5, ("1", "1"): 1.5}, "",
         "symbol '2' not in alphabet of 'x'"),
        # in one tuple, its length is checked before its symbols
        ((("0", "1"), ("0", "1")), {("2", "0", "0"): 1.0}, "",
         "tuple ('2', '0', '0') does not match variable count"),
        # the class variable and the alphabets are checked before any tuple
        ((("0", "1"), ("0", "1")), {("2", "0"): 1.0}, "z", "unknown class variable 'z'"),
        ((("0", "1"), ()), {("2", "0"): 1.0}, "",
         "discrete feature 'x' needs a non-empty alphabet"),
    ])
    def test_first_fault_wins(self, alphabets, probs, class_var, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            data.JointDistribution(("c", "x"), alphabets, probs, class_var)

    def test_from_json_rejects_a_repeated_tuple(self):
        doc = {"variables": [{"name": v, "values": ["0", "1"]} for v in ("c", "x")],
               "probabilities": [{"tuple": t, "prob": 0.5}
                                 for t in (["0", "0"], ["1", "1"], ["0", "0"])]}
        with pytest.raises(ValueError, match=r'^repeated tuple \["0", "0"\]$'):
            data.JointDistribution.from_json(json.dumps(doc))

    def test_json_round_trip(self, table_spec):
        back = data.JointDistribution.from_json(table_spec.to_json())
        assert back == data.JointDistribution(table_spec.variables, table_spec.alphabets,
                                              dict(table_spec.probs))


class TestPlantedContext:
    def test_contexts_disjoint_and_deterministic(self):
        params = data.PlantedContextParams()
        tr1, te1 = data.plant_context_dataset(params, seed=4)
        tr2, te2 = data.plant_context_dataset(params, seed=4)
        assert tr1.rows == tr2.rows and te1.rows == te2.rows
        ci = tr1.schema.index_of("condition")
        assert max(tr1.column(ci)) < min(te1.column(ci))

    def test_zero_shift_conditionals_match(self):
        # with no context effect a fixed classifier scores about the same
        # with and without contextual normalization
        from ctxclass import harness, preprocess

        params = data.PlantedContextParams(shift=0.0)
        train, test = data.plant_context_dataset(params, seed=1)
        plain = harness.evaluate("nn", *_encoded(train, test))
        base = train.subset([i for i, c in enumerate(train.class_labels()) if c == "c0"])
        cfg = preprocess.PipelineConfig(
            normalize="contextual-linear",
            context=preprocess.ContextKey("condition"),
            baseline=base,
        )
        ctx = harness.evaluate("nn", *preprocess.run_pipeline(cfg, train, test))
        assert abs(plain - ctx) / test.n_rows <= 0.05

    def test_large_shift_zero_noise_normalized_is_perfect(self):
        from ctxclass import harness, preprocess

        params = data.PlantedContextParams(shift=8.0, noise=0.0)
        train, test = data.plant_context_dataset(params, seed=2)
        base = train.subset([i for i, c in enumerate(train.class_labels()) if c == "c0"])
        cfg = preprocess.PipelineConfig(
            normalize="contextual-linear",
            context=preprocess.ContextKey("condition"),
            baseline=base,
        )
        assert harness.evaluate("nn", *preprocess.run_pipeline(cfg, train, test)) == test.n_rows

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            data.PlantedContextParams(n_classes=1)

    @pytest.mark.parametrize("field", ["shift", "noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_shift_and_noise_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            data.PlantedContextParams(**{field: value})


def plant_context_oracle(params, seed):
    """The row-by-row generator: one uniform and n_primary gauss calls a row,
    kept as the reference for the stream that plant_context_dataset draws at once."""
    schema = data.planted_context_schema(params)
    rng = random.Random(seed)

    def make(n, ctx_range):
        lo, hi = ctx_range
        rows = []
        for r in range(n):
            cls = r % params.n_classes
            c = rng.uniform(lo, hi)
            feats = [
                float(cls) + params.shift * c + params.noise * rng.gauss(0.0, 1.0)
                for _ in range(params.n_primary)
            ]
            rows.append([c, *feats, cls])
        return data._from_cells(schema, rows)

    return (make(params.n_train, data.PLANTED_TRAIN_CONTEXT),
            make(params.n_test, data.PLANTED_TEST_CONTEXT))


@st.composite
def planted_params(draw):
    """Generator parameters over odd and even n_primary, 2-5 classes, and zero
    shift or noise."""
    n_classes = draw(st.integers(2, 5))
    return data.PlantedContextParams(
        n_classes=n_classes,
        n_primary=draw(st.integers(1, 12)),
        n_train=draw(st.integers(n_classes, n_classes + 9)),
        n_test=draw(st.integers(1, 9)),
        shift=draw(st.sampled_from([0.0, 5.0]) | st.floats(0, 20)),
        noise=draw(st.sampled_from([0.0, 0.1]) | st.floats(0, 5)),
    )


class TestPlantedContextMatchesTheRowLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(params=planted_params(), seed=st.integers(0, 2**32))
    @example(params=data.PlantedContextParams(n_primary=1, n_train=3, n_test=1, n_classes=3),
             seed=0)  # a pair spans two rows and train's last pair feeds test
    @example(params=data.PlantedContextParams(n_primary=10, n_train=1000, n_test=1000), seed=0)
    def test_bit_equal(self, params, seed):
        for new, old in zip(data.plant_context_dataset(params, seed),
                            plant_context_oracle(params, seed)):
            assert new.schema == old.schema
            assert np.array_equal(new.values.view(np.uint64), old.values.view(np.uint64))


def _encoded(train, test):
    from ctxclass import preprocess

    cfg = preprocess.PipelineConfig()
    return preprocess.run_pipeline(cfg, train, test)


# ---------------------------------------------------------------------------
# The column-wise loaders against the row walk they replaced

def parse_row_oracle(schema, fields, missing, path, lineno):
    """One data line as a matrix row, a cell at a time: the parse the loaders
    did before they parsed whole columns, kept as their reference."""
    row = []
    for feat, raw in zip(schema, fields):
        raw = raw.strip()
        if raw in missing:
            if feat.role is FeatureRole.CLASS:
                raise LoadError(f"{path}: line {lineno}: class cell is MISSING")
            row.append(math.nan)
        elif feat.kind == "discrete":
            if raw not in feat.codes:
                raise LoadError(f"{path}: line {lineno}: "
                                f"symbol {raw!r} not valid for {feat.name!r}")
            row.append(feat.codes[raw])
        else:
            try:
                value = float(raw)
            except ValueError:
                raise LoadError(f"{path}: line {lineno}: bad number {raw!r} for {feat.name!r}") from None
            if not math.isfinite(value):
                raise LoadError(f"{path}: line {lineno}: non-finite number {raw!r} for {feat.name!r}")
            row.append(value)
    return row


def load_table_oracle(path, schema_path):
    schema = data.load_schema(schema_path)
    rows = []
    with open(path, newline="") as fh:
        for lineno, fields in enumerate(csv.reader(fh), start=1):
            if not fields:
                continue
            if len(fields) != len(schema):
                raise LoadError(
                    f"{path}: line {lineno}: expected {len(schema)} fields, got {len(fields)}"
                )
            rows.append(parse_row_oracle(schema, fields, ("?", ""), path, lineno))
    return data._from_cells(schema, rows)


def load_hepatitis_oracle(path):
    schema = data.hepatitis_schema()
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(schema):
                raise LoadError(
                    f"{path}: line {lineno}: expected {len(schema)} fields, got {len(fields)}"
                )
            raw = fields[0].strip()
            if raw != "?":
                if raw not in data.HEPATITIS_CLASS_MAP:
                    raise LoadError(f"{path}: line {lineno}: unknown class symbol {raw!r}")
                fields[0] = data.HEPATITIS_CLASS_MAP[raw]
            rows.append(parse_row_oracle(schema, fields, ("?",), path, lineno))
    if not rows:
        raise LoadError(f"{path}: file contains no data rows")
    return data._from_cells(schema, rows)


def load_vowel_oracle(train_path, test_path):
    sides = []
    for path, flag, side in ((train_path, 0, "training"), (test_path, 1, "test")):
        raw = [r for r in data._parse_vowel_file(path) if r[0] == flag]
        if not raw:
            raise LoadError(f"{path}: no {side} rows (flag {flag})")
        sides.append((raw, path))
    speakers = sorted({r[2][0] for raw, _ in sides for r in raw}, key=lambda s: (len(s), s))
    schema = data._vowel_schema(speakers)
    return tuple(
        data._from_cells(schema, [parse_row_oracle(schema, cells, (), path, n) for _, n, cells in raw])
        for raw, path in sides
    )


NUMBERS = ["0", "1.5", "-2", "3.25", "1e3", "0.1"]
BAD_NUMBERS = ["x", "1.2.3", "--1", "inf", "-inf", "nan", "NaN", "1e999"]


@st.composite
def faulty_lines(draw, pools, faults, separator):
    """1-8 data lines of cells drawn from one pool per column, some blank
    lines between them, and 0-3 injected faults: a cell drawn from its
    column's faults, or a line with one field too few or too many."""
    lines = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        if not line:
            continue
        c = draw(st.integers(0, min(len(line), len(pools)) - 1))  # a faulty line may be short
        kind = draw(st.sampled_from(["cell", "cell", "fewer", "more"]))
        if kind == "fewer":
            del line[c]
        elif kind == "more":
            line.insert(c, draw(st.sampled_from(pools[c])))
        elif faults[c]:
            line[c] = draw(st.sampled_from(faults[c]))
    text = [separator.join(line) for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), "")
    return "\n".join(text) + "\n"


@st.composite
def faulty_tables(draw):
    """A schema sidecar of 1-4 features besides the class, and a CSV file of
    faulty_lines under it, with padded cells and both MISSING tokens."""
    entries, pools, faults = [], [], []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            entries.append({"name": f"d{j}", "role": "primary", "kind": "discrete",
                            "alphabet": ["u", "v", "w"]})
            pools.append(["u", "v", " w", "?", ""])
            faults.append(["z", "U"])
        else:
            entries.append({"name": f"x{j}", "role": "primary", "kind": "continuous"})
            pools.append(NUMBERS + [" 2.5 ", "?", ""])
            faults.append(BAD_NUMBERS)
    at = draw(st.integers(0, len(entries)))
    entries.insert(at, {"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]})
    pools.insert(at, ["a", "b", " b"])
    faults.insert(at, ["?", "", "c"])
    return json.dumps(entries), draw(faulty_lines(pools, faults, ","))


def _hepatitis_pools():
    pools, faults = [["1", "2"]], [["?", "3", "die"]]
    for name, role, kind, alphabet in data.HEPATITIS_COLUMNS[1:]:
        if kind == "discrete":
            pools.append(["1", "2", "?"])
            faults.append(["0", "3"])
        else:
            pools.append(NUMBERS + ["?"])
            faults.append(BAD_NUMBERS)
    return pools, faults


def _vowel_pools():
    pools = [["0", "1"], ["0", "1", "2", "3"], ["0", "1"]] + [NUMBERS] * 10 + [["0", "4", "10"]]
    faults = [["x"], ["1.5"], ["2"]] + [BAD_NUMBERS] * 10 + [["11", "v"]]
    return pools, faults


def _outcome(load, *args):
    """What a loader returns, or the text of the LoadError it raises."""
    try:
        return load(*args)
    except LoadError as exc:
        return f"LoadError: {exc}"


class TestColumnLoadersMatchTheRowWalk:
    SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @SETTINGS
    @given(table=faulty_tables())
    def test_load_table(self, tmp_path, table):
        schema_text, text = table
        (tmp_path / "t.schema.json").write_text(schema_text)
        (tmp_path / "t.csv").write_text(text)
        args = (tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert _outcome(data.load_table, *args) == _outcome(load_table_oracle, *args)

    @SETTINGS
    @given(text=faulty_lines(*_hepatitis_pools(), ","))
    def test_load_hepatitis(self, tmp_path, text):
        (tmp_path / "h.data").write_text(text)
        path = tmp_path / "h.data"
        assert _outcome(data.load_hepatitis, path) == _outcome(load_hepatitis_oracle, path)

    @SETTINGS
    @given(text=faulty_lines(*_vowel_pools(), " "))
    @pytest.mark.filterwarnings("ignore:vowel")
    def test_load_vowel(self, tmp_path, text):
        (tmp_path / "v.data").write_text(text)
        path = tmp_path / "v.data"
        assert _outcome(data.load_vowel, path, path) == _outcome(load_vowel_oracle, path, path)


# ---------------------------------------------------------------------------
# The streamed, blocked loaders against the whole-file reader they replaced

def whole_file_text(path, newline=None):
    """The reader the loaders had before they streamed, kept as their
    reference: the whole file decoded at once, a quote looked for in it, and
    its lines as ``StringIO.readlines()`` gives them."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: {exc}") from None
    return '"' in text, io.StringIO(text, newline=newline)


def unblocked_parse(schema, lines, fields_of, missing, path):
    """The parse before it went a block at a time: every distinct line split
    first, then each whole column parsed, the first fault reported."""
    width, index, records, linenos, picks, faults = len(schema), {}, [], [], [], []
    try:
        for lineno, text in lines:
            k = index.setdefault(text, len(records))
            if k == len(records):
                fields = fields_of(text)
                if not fields:
                    index[text] = k = -1
                elif len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                else:
                    records.append(fields)
                    linenos.append(lineno)
            if k >= 0:
                picks.append(k)
    except (ValueError, csv.Error, LoadError) as exc:
        faults.append((len(records), 0, exc if isinstance(exc, LoadError)
                       else LoadError(f"{path}: line {lineno}: {exc}")))
    values = np.empty((len(records), width))
    for j, (f, tokens) in enumerate(zip(schema, zip(*records))):
        try:
            column = list(map({s: c for s, c in f.codes.items() if s not in missing
                               and s == s.strip()}.__getitem__, tokens) if f.alphabet
                          else map(float, tokens))
            if f.alphabet or math.isfinite(sum(column)):
                values[:, j] = column
                continue
        except (KeyError, ValueError):
            pass
        for i, raw in enumerate(tokens):
            try:
                values[i, j] = data._cell(f, raw.strip(), missing)
            except ValueError as exc:
                faults.append((i, j, LoadError(f"{path}: line {linenos[i]}: {exc}")))
                break
    if faults:
        raise min(faults)[2] from None
    return data.Dataset(schema, values).subset(picks)


def _bits(load, *args):
    """A loader's datasets as (schema, shape, bytes of the matrix), bit for
    bit, NaN included; or the text of the LoadError it raises."""
    try:
        loaded = load(*args)
    except LoadError as exc:
        return f"LoadError: {exc}"
    return [(d.schema, d.values.shape, d.values.tobytes())
            for d in (loaded if isinstance(loaded, tuple) else (loaded,))]


def _crlf_across_a_read(offset=8191):
    """CRLF lines whose "\\r" is the byte at offset, the last of the first 8 KB
    that a text file reads, and its "\\n" the first of the next."""
    head = "a,1,u\r\n" * ((offset - 20) // 7)
    return head + "a,1" + "0" * (offset - len(head) - 5) + ",u\r\nb,2,v\r\n"


_REPEATS = "a,1,u\nb,2,v\na,1,u\n\na,1,u\nb,?,w\nb,2,v\na,1,u\n"
_HEPATITIS = make_hepatitis_text(n_rows=12)
_VOWEL = "\n".join(line for line in make_vowel_text().splitlines()
                   if line.split()[1] in ("0", "9")) + "\n"  # a speaker of each side
BLOCK_EDGE_CASES = {
    "lf": ("table", _REPEATS),
    "crlf": ("table", _REPEATS.replace("\n", "\r\n")),
    "lone-cr": ("table", _REPEATS.replace("\n", "\r")),
    "mixed": ("table", "a,1,u\r\nb,2,v\ra,1,u\n\r\nb,3,w\r\ra,1,u\n"),
    "crlf-across-a-read": ("table", _crlf_across_a_read()),
    "no-final-newline": ("table", _REPEATS.rstrip("\n")),
    "blank-lines": ("table", "\n\na,1,u\n\n  \n\nb,2,v\n\n\n,\n"),
    "repeats-across-blocks": ("table", "a,1,u\nb,2,v\n" * 5 + "a, 1,u\nb,2,v\na,1,u\n"),
    "quoted-field-over-lines": ("symbols", 'a,1,"l\nm"\nb,2,0\na,1,"l\nm"\n\nb,3,"l\nm"\nb,2,0\n'),
    "fault-after-a-multi-line-record": ("symbols", 'a,1,0\nb,2,"l\nm"\na,1,0\nb,x,0\n'),
    "faults-in-two-blocks": ("table", "a,1,u\nb,x,v\na,1,u\nb,2,z\na,y,u\n"),
    "later-column-first": ("table", "a,1,u\na,2,v\nb,1,z\nb,x,u\n"),
    "short-line-in-a-later-block": ("table", "a,1,u\nb,2,v\na,1,u\nb,3,v\nb,2\n"),
    "bad-byte-past-8-kb": ("table", "a,x,u\n" + "a,1,u\n" * 2000 + "\udcff,1,u\n"),
    "bad-byte-past-a-64-kb-read": ("table", "a,1,u\n" * 20000 + "\udcff,1,u\na,x,u\n"),
    "hepatitis-crlf": ("hepatitis", _HEPATITIS.replace("\n", "\r\n") + "\r\n"),
    "hepatitis-lone-cr": ("hepatitis", _HEPATITIS.replace("\n", "\r")),
    "hepatitis-bad-class-late": ("hepatitis", _HEPATITIS + "3" + _HEPATITIS.split("\n")[0][1:]),
    "vowel-crlf": ("vowel", _VOWEL.replace("\n", "\r\n")),
    "vowel-no-final-newline": ("vowel", "\n" + _VOWEL.rstrip("\n")),
}


class TestBlockedLoadersMatchTheWholeFileReader:
    """Every loader streams its file and parses a block of _BLOCK_ROWS lines
    at a time; at any block size it gives what the whole-file reader and the
    unblocked parse gave: the same Dataset bit for bit, or the same error."""

    @staticmethod
    def load_args(tmp_path, kind, text):
        path = tmp_path / "f.data"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
        if kind == "hepatitis":
            return data.load_hepatitis, path
        if kind == "vowel":
            return data.load_vowel, path, path
        schema = TABLE_SCHEMA if kind == "table" else TestGenericTable.SYMBOL_SCHEMA
        (tmp_path / "f.schema.json").write_text(schema, encoding="utf-8")
        return data.load_table, path, tmp_path / "f.schema.json"

    @pytest.mark.parametrize("block", [1, 2, 3, data._BLOCK_ROWS])
    @pytest.mark.parametrize("case", BLOCK_EDGE_CASES)
    @pytest.mark.filterwarnings("ignore:vowel")
    def test_same_outcome(self, tmp_path, monkeypatch, case, block):
        load, *args = self.load_args(tmp_path, *BLOCK_EDGE_CASES[case])
        with monkeypatch.context() as m:
            m.setattr(data, "_open_text", whole_file_text)
            m.setattr(data, "_parse_lines", unblocked_parse)
            want = _bits(load, *args)
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        assert _bits(load, *args) == want

    def test_the_cases_reach_what_they_name(self, tmp_path):
        outcomes = {case: _bits(*self.load_args(tmp_path, *BLOCK_EDGE_CASES[case]))
                    for case in ("faults-in-two-blocks", "later-column-first", "bad-byte-past-8-kb",
                                 "bad-byte-past-a-64-kb-read", "crlf-across-a-read")}
        assert outcomes["faults-in-two-blocks"].endswith("line 2: bad number 'x' for 'x'")
        assert outcomes["later-column-first"].endswith("line 3: symbol 'z' not valid for 'd'")
        assert "can't decode byte 0xff in position 12006:" in outcomes["bad-byte-past-8-kb"]
        assert "byte 0xff in position 120000:" in outcomes["bad-byte-past-a-64-kb-read"]
        assert _crlf_across_a_read().encode().index(b"\r\n", 8180) == 8191
        [(_, shape, _)] = outcomes["crlf-across-a-read"]
        assert shape == (1169, 3)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
    @pytest.mark.parametrize("text", ["a,1.5,u\nb,2,v\n", "a,1.5,u\n\xff,2,v\n"])
    def test_a_pipe_is_read_once(self, tmp_path, text):
        # a pipe cannot be decoded first and read again: it is held whole
        (tmp_path / "t.schema.json").write_text(TABLE_SCHEMA)
        (tmp_path / "t.csv").write_bytes(text.encode("latin-1"))
        os.mkfifo(tmp_path / "pipe.csv")
        writer = threading.Thread(target=(tmp_path / "pipe.csv").write_bytes,
                                  args=(text.encode("latin-1"),), daemon=True)
        writer.start()
        try:
            piped = _bits(data.load_table, tmp_path / "pipe.csv", tmp_path / "t.schema.json")
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        want = _bits(data.load_table, tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert piped == (want.replace("t.csv", "pipe.csv") if isinstance(want, str) else want)

    def test_each_distinct_line_is_split_once_across_blocks(self, tmp_path, monkeypatch):
        (tmp_path / "t.schema.json").write_text(TABLE_SCHEMA)
        (tmp_path / "t.csv").write_text("a,1.5,u\nb,?,v\na,2,w\n" * 5)
        calls = []
        real = data._cell
        monkeypatch.setattr(data, "_cell", lambda *args: calls.append(args[1]) or real(*args))
        monkeypatch.setattr(data, "_BLOCK_ROWS", 2)
        loaded = data.load_table(tmp_path / "t.csv", tmp_path / "t.schema.json")
        # only the first block's x column holds "?"; later blocks repeat its lines
        assert calls == ["1.5", "?"]
        assert loaded == load_table_oracle(tmp_path / "t.csv", tmp_path / "t.schema.json")


# ---------------------------------------------------------------------------
# Files with repeated lines: each distinct line is parsed once

def _repeat(draw, text, separator):
    """2-16 lines drawn, with repeats, from the first 4 data lines of text, a
    blank line, and their twins, each of which pads one cell with spaces."""
    distinct = [line for line in text.splitlines() if line][:4] + [""]
    twins = []
    for line in distinct:
        cells = line.split(separator)
        k = draw(st.integers(0, len(cells) - 1))
        twins.append(separator.join(f" {c} " if i == k else c for i, c in enumerate(cells)))
    lines = draw(st.lists(st.sampled_from(distinct + twins), min_size=2, max_size=16))
    return "\n".join(lines) + "\n"


@st.composite
def repeated_lines(draw, pools, faults, separator):
    return _repeat(draw, draw(faulty_lines(pools, faults, separator)), separator)


@st.composite
def repeated_tables(draw):
    schema_text, text = draw(faulty_tables())
    return schema_text, _repeat(draw, text, ",")


HEPATITIS_LINE = ",".join(["2", "30"] + ["1"] * 12 + ["1.0"] * 5 + ["1"])
TABLE_SCHEMA = json.dumps([
    {"name": "cls", "role": "class", "kind": "discrete", "alphabet": ["a", "b"]},
    {"name": "x", "role": "primary", "kind": "continuous"},
    {"name": "d", "role": "primary", "kind": "discrete", "alphabet": ["u", "v", "w"]},
])


class TestRepeatedLinesMatchTheRowWalk:
    SETTINGS = TestColumnLoadersMatchTheRowWalk.SETTINGS

    @SETTINGS
    @given(table=repeated_tables())
    @example(table=(TABLE_SCHEMA, "a,1,u\nb,x,v\na,1,u\nb,x,v\n"))  # a faulty line repeats
    @example(table=(TABLE_SCHEMA, "a,1,u\na,1,u\nb,inf,v\n"))  # a clean repeat, then a fault
    @example(table=(TABLE_SCHEMA, "a,1,u\na,1,u\nb,2\n"))  # a short line after a repeat
    @example(table=(TABLE_SCHEMA, "a,1,u\n a , 1 ,u\nb,2,v\na,1,u\n"))  # padded twins
    def test_load_table(self, tmp_path, table):
        schema_text, text = table
        (tmp_path / "t.schema.json").write_text(schema_text)
        (tmp_path / "t.csv").write_text(text)
        args = (tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert _outcome(data.load_table, *args) == _outcome(load_table_oracle, *args)

    @SETTINGS
    @given(text=repeated_lines(*_hepatitis_pools(), ","))
    @example(text=f"{HEPATITIS_LINE}\n{HEPATITIS_LINE}\n3{HEPATITIS_LINE[1:]}\n")  # unknown class
    @example(text=f"{HEPATITIS_LINE}\n?{HEPATITIS_LINE[1:]}\n{HEPATITIS_LINE}\n"
                  f"?{HEPATITIS_LINE[1:]}\ndie{HEPATITIS_LINE[1:]}\n")
    def test_load_hepatitis(self, tmp_path, text):
        (tmp_path / "h.data").write_text(text)
        path = tmp_path / "h.data"
        assert _outcome(data.load_hepatitis, path) == _outcome(load_hepatitis_oracle, path)

    @SETTINGS
    @given(text=repeated_lines(*_vowel_pools(), " "))
    @pytest.mark.filterwarnings("ignore:vowel")
    def test_load_vowel(self, tmp_path, text):
        (tmp_path / "v.data").write_text(text)
        path = tmp_path / "v.data"
        assert _outcome(data.load_vowel, path, path) == _outcome(load_vowel_oracle, path, path)


@st.composite
def quoted_tables(draw):
    """repeated_tables with some cells quoted, as csv quotes them, so that the
    file holds a quote character and is read a csv record at a time."""
    schema_text, text = draw(repeated_tables())
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        quoted = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        lines.append(",".join(f'"{c}"' if q else c for c, q in zip(cells, quoted)))
    return schema_text, "\n".join(lines) + "\n"


class TestQuotedFilesMatchTheRowWalk:
    @TestColumnLoadersMatchTheRowWalk.SETTINGS
    @given(table=quoted_tables())
    @example(table=(TABLE_SCHEMA, 'a,1,u\n"a",1,u\nb,"x",v\n'))
    def test_load_table(self, tmp_path, table):
        schema_text, text = table
        (tmp_path / "t.schema.json").write_text(schema_text)
        (tmp_path / "t.csv").write_text(text)
        args = (tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert _outcome(data.load_table, *args) == _outcome(load_table_oracle, *args)


ODD_NUMBERS = ["1_0", "١٢", " 2.5", "-0.0", "1e999", " inf"]  # float() takes all six


@st.composite
def fault_order_tables(draw):
    """A schema of the class and 1-3 features, whose alphabets may list "?",
    "" or a padded symbol, over 2-8 lines with a faulty cell in a later column
    of an earlier line and one in an earlier column of a later line, and maybe
    a line with a field too few or too many, or one over the csv field limit."""
    entries, pools, faults = [], [], []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            alphabet = draw(st.lists(st.sampled_from(["u", "v", "?", "", " w"]),
                                     min_size=1, max_size=4, unique=True))
            entries.append({"name": f"d{j}", "role": "primary", "kind": "discrete",
                            "alphabet": alphabet})
            pools.append(["u", "v", " v", "?", "", " w"])
            faults.append(["z", "U"])
        else:
            entries.append({"name": f"x{j}", "role": "primary", "kind": "continuous"})
            pools.append(NUMBERS + ODD_NUMBERS + ["?", ""])
            faults.append(["x", "1e999", " inf", "nan"])
    at = draw(st.integers(0, len(entries)))
    entries.insert(at, {"name": "cls", "role": "class", "kind": "discrete",
                        "alphabet": ["a", "b"] + draw(st.sampled_from([[], ["?"], [""]]))})
    pools.insert(at, ["a", "b", " b"])
    faults.insert(at, ["?", "", "c"])
    width = len(entries)
    lines = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(draw(st.integers(2, 8)))]
    early, late = sorted(draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2,
                                       unique=True)))
    left, right = sorted(draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2,
                                       unique=True)))
    lines[early][right] = draw(st.sampled_from(faults[right]))
    lines[late][left] = draw(st.sampled_from(faults[left]))
    text = [",".join(line) for line in lines]
    stop = draw(st.sampled_from(["none", "fewer", "more", "big"]))
    if stop != "none":
        field = "1" * (csv.field_size_limit() + 1) if stop == "big" else "a"
        size = width - 1 if stop == "fewer" else width + 1 if stop == "more" else width
        text.insert(draw(st.integers(0, len(text))), ",".join([field] + ["a"] * (size - 1)))
    return json.dumps(entries), "\n".join(text) + "\n"


def _table_oracle_outcome(path, schema_path):
    """load_table_oracle's outcome, its csv.Error named as load_table names
    one: by its line, here the first with a field over the limit."""
    try:
        return _outcome(load_table_oracle, path, schema_path)
    except csv.Error as exc:
        lineno = next(n for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1)
                      if any(len(f) > csv.field_size_limit() for f in line.split(",")))
        return f"LoadError: {path}: line {lineno}: {exc}"


class TestFaultOrderMatchesTheRowWalk:
    BIG = "1" * (csv.field_size_limit() + 1)

    @TestColumnLoadersMatchTheRowWalk.SETTINGS
    @given(table=fault_order_tables())
    @example(table=(TABLE_SCHEMA, "a,1,u\na,1,z\nb,x,v\n"))  # a later column, an earlier line
    @example(table=(TABLE_SCHEMA, "a,x,u\nb,2\n"))  # a cell fault, then a short line
    @example(table=(TABLE_SCHEMA, "a,2,u,v\nb,x,v\n"))  # a long line, then a cell fault
    @example(table=(TABLE_SCHEMA, f"a,1,u\nb,{BIG},v\na,1,z\n"))  # over the limit, then a cell fault
    @example(table=(TABLE_SCHEMA, f"a,1,z\nb,{BIG},v\n"))  # a cell fault, then over the limit
    @example(table=(TABLE_SCHEMA.replace('"w"]', '"w", "?", ""]'), "a,?,?\nb,,\n"))  # still MISSING
    @example(table=(TABLE_SCHEMA, "".join(f"a,{x},u\n" for x in ODD_NUMBERS[:4])))  # all load
    @example(table=(TABLE_SCHEMA, "".join(f"a,{x},u\n" for x in ODD_NUMBERS[::-1])))  # " inf" first
    @example(table=(TABLE_SCHEMA.replace('"w"]', '" w"]'), "a,1,u\nb,2, w\n"))  # " w" strips to "w"
    def test_load_table(self, tmp_path, table):
        schema_text, text = table
        (tmp_path / "t.schema.json").write_text(schema_text, encoding="utf-8")
        (tmp_path / "t.csv").write_text(text, encoding="utf-8")
        args = (tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert _outcome(data.load_table, *args) == _table_oracle_outcome(*args)


def test_each_distinct_line_is_parsed_once(tmp_path, monkeypatch):
    distinct = ["a,1.5,u", "b,?,v", "a,2,w"]
    (tmp_path / "t.schema.json").write_text(TABLE_SCHEMA)
    (tmp_path / "t.csv").write_text("".join(distinct[k % 3] + "\n" for k in range(2000)))
    args = (tmp_path / "t.csv", tmp_path / "t.schema.json")
    calls = []
    real = data._cell

    def counting_cell(*cell_args):
        calls.append(cell_args)
        return real(*cell_args)

    monkeypatch.setattr(data, "_cell", counting_cell)
    loaded = data.load_table(*args)
    # the other columns each go through one map; only x, which holds "?",
    # is parsed token by token, one token a distinct line
    assert [raw for _, raw, _ in calls] == ["1.5", "?", "2"]
    assert loaded == load_table_oracle(*args)


# ---------------------------------------------------------------------------
# The column-wise writer against the row-wise csv.writer it replaced

def write_table_oracle(dataset, path):
    """The row-wise writer: one csv.writer row per Dataset.rows row."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            ["?" if c is MISSING else c if isinstance(c, str) else repr(c) for c in row]
            for row in dataset.rows
        )


SPECIAL_SYMBOLS = [",", '"', "\r", "\n", " ", "?", "", "a b", 'x,"y"', "\r\n", " lead", "1.5"]
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1e-5, math.nan]


@st.composite
def written_datasets(draw):
    """1-4 columns (a one-column schema is the class alone), discrete ones
    over symbols that csv must quote or that look like MISSING, continuous
    ones over extreme floats and NaN, and 0-6 rows."""
    width = draw(st.integers(1, 4))
    at = draw(st.integers(0, width - 1))
    symbols = st.sampled_from(SPECIAL_SYMBOLS) | st.text(
        st.characters(blacklist_categories=("Cs",)), max_size=3)
    feats, columns = [], []
    n = draw(st.integers(0, 6))
    for j in range(width):
        if j == at or draw(st.booleans()):
            alphabet = tuple(draw(st.lists(symbols, min_size=1, max_size=4)))
            role = FeatureRole.CLASS if j == at else FeatureRole.PRIMARY
            feats.append(data.Feature(f"f{j}", role, "discrete", alphabet))
            codes = st.integers(0, len(alphabet) - 1)
            cells = codes if j == at else codes | st.just(math.nan)
        else:
            feats.append(data.Feature(f"f{j}", FeatureRole.PRIMARY, "continuous"))
            cells = st.sampled_from(SPECIAL_FLOATS) | st.floats()
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    values = np.array(columns, dtype=float).T
    return data.Dataset(data.FeatureSchema(tuple(feats)), values)


class TestWriterMatchesTheRowWriter:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=written_datasets())
    @example(dataset=data.Dataset(data.FeatureSchema((
        data.Feature("c", FeatureRole.CLASS, "discrete", ("", "a")),)), np.array([[0.0], [1.0]])))
    def test_same_bytes(self, tmp_path, dataset):
        data.write_table(dataset, tmp_path / "new.csv")
        write_table_oracle(dataset, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _traced_peak(call, *args):
    """The most memory tracemalloc saw allocated at once during call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableMemory:
    """Table I/O holds the matrix plus one block: no copy of the file's text,
    and no cell strings for more than _BLOCK_ROWS rows at once."""

    def test_writer_peak_does_not_grow_with_the_rows(self, tmp_path):
        peaks = []
        for n in (20_000, 40_000):
            train, _ = data.plant_context_dataset(data.PlantedContextParams(n_train=n), 0)
            peaks.append(_traced_peak(data.write_table, train, tmp_path / "t.csv"))
        # the whole-table writer held every cell's text: 11 and 22 MB here
        assert peaks[1] < 1.05 * peaks[0] < 4 * 2**20

    def test_loader_peak_is_the_matrix_plus_a_block(self, tmp_path):
        rng, n, width = random.Random(3), 20_000, 8
        schema = [{"name": f"x{j}", "role": "class" if j == 0 else "primary",
                   "kind": "discrete", "alphabet": ["0", "1"]} for j in range(width)]
        (tmp_path / "t.schema.json").write_text(json.dumps(schema), encoding="utf-8")
        (tmp_path / "t.csv").write_text("".join(",".join(rng.choice("01") for _ in range(width))
                                                + "\n" for _ in range(n)), encoding="utf-8")
        matrix = n * width * 8
        peak = _traced_peak(data.load_table, tmp_path / "t.csv", tmp_path / "t.schema.json")
        # the rest is each line's row index (8 bytes a line) and one block;
        # the whole-file reader held 1.9 MB more than the matrix here
        assert peak < matrix + 512 * 1024


def _load_sidecar(text):
    path = "s.schema.json"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return data.load_schema(path)


_XY_SCHEMA = data.FeatureSchema((
    data.Feature("x", FeatureRole.PRIMARY, "continuous"),
    data.Feature("cls", FeatureRole.CLASS, "discrete", ("a", "b")),
))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: data.Feature("f", FeatureRole.PRIMARY, "ordinal"), ValueError,
                 "unknown feature kind 'ordinal'", id="unknown-kind"),
    pytest.param(lambda: data.Feature("x", FeatureRole.PRIMARY, "continuous", ("a",)),
                 ValueError, "continuous feature 'x' must not carry an alphabet",
                 id="continuous-with-alphabet"),
    pytest.param(lambda: data.FeatureSchema(_XY_SCHEMA.features + _XY_SCHEMA.features[:1]),
                 ValueError, "feature names must be unique", id="duplicate-names"),
    pytest.param(lambda: data.FeatureSchema(_XY_SCHEMA.features[:1]), ValueError,
                 "schema must have exactly one class feature, got 0", id="no-class"),
    pytest.param(lambda: _XY_SCHEMA.index_of("z"), KeyError, "no feature named 'z'",
                 id="unknown-name"),
    pytest.param(lambda: _XY_SCHEMA.check_row((0.5,), where=" (row 3)"), ValueError,
                 "row (row 3) has 1 cells, schema has 2", id="row-length"),
    pytest.param(lambda: _XY_SCHEMA.check_row((0.5, MISSING)), ValueError,
                 "class cell is MISSING", id="missing-class-cell"),
    pytest.param(lambda: _XY_SCHEMA.check_row((0.5, "z")), ValueError,
                 "value 'z' not in alphabet of 'cls'", id="symbol-outside-alphabet"),
    pytest.param(lambda: _XY_SCHEMA.check_row(("a", "a")), ValueError,
                 "continuous feature 'x' got 'a'", id="symbol-in-continuous-cell"),
    pytest.param(lambda: _load_sidecar('{"name": "x"}'), LoadError,
                 "s.schema.json: schema sidecar must be a JSON list", id="sidecar-not-a-list"),
    pytest.param(lambda: _load_sidecar('[{"name": "x", "role": "primary"}]'), LoadError,
                 "s.schema.json: bad schema entry {'name': 'x', 'role': 'primary'}: 'kind'",
                 id="sidecar-bad-entry"),
    pytest.param(lambda: data.JointDistribution(("a", "b"), (("0", "1"),), {}), ValueError,
                 "one alphabet per variable required", id="alphabet-count"),
    pytest.param(lambda: data.sample_from(worked_spec(), -1, 0), ValueError,
                 "n must be nonnegative", id="negative-sample-size"),
    pytest.param(lambda: data.PlantedContextParams(n_train=3), ValueError,
                 "too few rows requested", id="too-few-rows"),
])
def test_refusals_name_their_cause(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as raised:
        call()
    assert raised.value.args[0] == message

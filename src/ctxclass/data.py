"""Dataset representation, schemas with feature roles, loaders, splits, and
joint distributions.

A Dataset is one read-only float matrix with a column per feature: a
continuous cell holds its float, a discrete cell the index of its symbol in
the feature's alphabet, and NaN marks a MISSING cell.  Loaders read a decoded
file a block of lines at a time, split each distinct line (with quotes: each
csv record) once, and parse a block's new lines a column at a time: one map,
or where it refuses a token the routine that defines a cell and names its
fault.  The writer (a block of rows at a time), transforms and the
planted-context generator (one draw of its random stream) work a column at
a time; rows of symbols, floats and MISSING are views derived on demand.

A JointDistribution is an explicit table of tuple probabilities over
discrete variables, one of them the class.  One checked walk at construction
builds its ``support``, the tuples as a Dataset, and ``p``, their probability
vector: what sampling draws from and the taxonomy tests sum marginals over.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np


_BLOCK_ROWS = 4096  # lines a loader reads, or rows the table writer formats, at once


class LoadError(Exception):
    """Raised when an input file cannot be parsed into a Dataset."""


class NonFiniteRowsError(ValueError):
    """Raised when generator parameters would give rows that are not finite."""


def _open_text(path, newline=None) -> tuple[bool, io.TextIOWrapper]:
    """Whether a UTF-8 file holds a quote character, and the file opened with
    ``newline``, past one leading byte-order mark.  It is decoded a chunk at a
    time before any line is read (a pipe, which cannot be read twice, is held
    whole): text that does not decode is a LoadError naming its file offset."""
    raw = open(path, "rb")
    if not raw.seekable():
        with raw:
            raw = io.BytesIO(raw.read())
    fh = io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
    try:  # a list, not a generator, so that every chunk is decoded
        quoted = any(['"' in chunk for chunk in iter(lambda: fh.read(1 << 16), "")])
    except UnicodeDecodeError:  # its position counts from the chunk: decode the file for its own
        with fh:
            raw.seek(0)
            try:
                raw.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LoadError(f"{path}: {exc}") from None
        raise
    fh.seek(0)
    if fh.read(1) != "\ufeff":
        fh.seek(0)
    return quoted, fh


class _Missing:
    """Singleton marker for an absent cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()


class FeatureRole(Enum):
    CLASS = "class"
    PRIMARY = "primary"
    CONTEXTUAL = "contextual"


@dataclass(frozen=True)
class Feature:
    name: str
    role: FeatureRole
    kind: str  # "discrete" or "continuous"
    alphabet: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "discrete" and not self.alphabet:
            raise ValueError(f"discrete feature {self.name!r} needs a non-empty alphabet")
        if self.kind == "continuous" and self.alphabet is not None:
            raise ValueError(f"continuous feature {self.name!r} must not carry an alphabet")

    @cached_property
    def codes(self) -> dict[str, int]:
        """Each symbol's code: its first index in the alphabet."""
        return {s: k for k, s in reversed(tuple(enumerate(self.alphabet)))}


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptions; exactly one feature has the class role."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        n_class = sum(1 for f in self.features if f.role is FeatureRole.CLASS)
        if n_class != 1:
            raise ValueError(f"schema must have exactly one class feature, got {n_class}")
        if self.class_feature.kind != "discrete":
            raise ValueError(f"class feature {self.class_feature.name!r} must be discrete")

    def __len__(self):
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(f"no feature named {name!r}")

    @property
    def class_index(self) -> int:
        return next(i for i, f in enumerate(self.features) if f.role is FeatureRole.CLASS)

    @property
    def class_feature(self) -> Feature:
        return self.features[self.class_index]

    @property
    def primary_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.role is FeatureRole.PRIMARY)

    @property
    def contextual_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.features) if f.role is FeatureRole.CONTEXTUAL)

    def check_row(self, row: Sequence, where: str = "") -> None:
        if len(row) != len(self.features):
            raise ValueError(f"row{where} has {len(row)} cells, schema has {len(self.features)}")
        for f, cell in zip(self.features, row):
            if cell is MISSING:
                if f.role is FeatureRole.CLASS:
                    raise ValueError(f"class cell{where} is MISSING")
                continue
            if f.kind == "discrete":
                if not isinstance(cell, str) or cell not in f.alphabet:
                    raise ValueError(f"value {cell!r}{where} not in alphabet of {f.name!r}")
            else:
                if not isinstance(cell, (int, float)) or isinstance(cell, bool):
                    raise ValueError(f"continuous feature {f.name!r}{where} got {cell!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable table of observations conforming to a schema.

    ``values`` is a float64 matrix, n_rows x len(schema), that the
    constructor makes read-only: a continuous cell holds its float, a
    discrete cell its symbol's code (``Feature.codes``), and NaN is MISSING.
    ``class_codes`` is the class column as np.intp codes; ``rows``, ``column``
    and ``class_labels`` are views with symbols, floats and MISSING as cells.
    """

    schema: FeatureSchema
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(values), len(self.schema)):
            raise ValueError(f"values of shape {values.shape} do not fit the schema")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def build(cls, schema: FeatureSchema, rows: Iterable[Sequence]) -> "Dataset":
        """The validated constructor from Python rows of symbols, numbers and
        MISSING; a bad cell is a ValueError naming its row."""
        rows = [tuple(r) for r in rows]
        for i, r in enumerate(rows):
            schema.check_row(r, where=f" (row {i})")
        return _from_cells(schema, [[math.nan if c is MISSING else f.codes[c] if f.alphabet else c
                                     for f, c in zip(schema, r)] for r in rows])

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self.schema == other.schema
                and np.array_equal(self.values, other.values, equal_nan=True))

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*(self.column(i) for i in range(len(self.schema)))))

    def column(self, index: int) -> tuple:
        symbols = self.schema.features[index].alphabet
        return tuple(MISSING if c != c else symbols[int(c)] if symbols else c
                     for c in self.values[:, index].tolist())

    def class_codes(self) -> np.ndarray:
        return self.values[:, self.schema.class_index].astype(np.intp)

    def class_labels(self) -> tuple[str, ...]:
        return self.column(self.schema.class_index)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset(self.schema, self.values[np.asarray(indices, dtype=np.intp)])

    def missing_count(self) -> int:
        return int(np.isnan(self.values).sum())

    def replace_columns(self, indices: Sequence[int], columns: np.ndarray,
                        schema: FeatureSchema | None = None) -> "Dataset":
        """A copy with the listed columns replaced, under schema (default: this one)."""
        values = self.values.copy()
        values[:, list(indices)] = columns
        return Dataset(schema or self.schema, values)


def _from_cells(schema: FeatureSchema, rows: list[list[float]]) -> Dataset:
    """A Dataset from rows already in matrix form (codes, floats, NaN)."""
    return Dataset(schema, np.array(rows, dtype=float).reshape(len(rows), len(schema)))


def _cell(feat: Feature, raw: str, missing: tuple[str, ...]) -> float:
    """One stripped cell's matrix value: a token in ``missing`` is NaN, a
    discrete cell its symbol's code, a continuous cell a finite float.  A
    MISSING class, a symbol outside the alphabet, or a bad or non-finite
    number is a ValueError that says which."""
    if raw in missing:
        if feat.role is FeatureRole.CLASS:
            raise ValueError("class cell is MISSING")
        return math.nan
    if feat.kind == "discrete":
        if raw not in feat.codes:
            raise ValueError(f"symbol {raw!r} not valid for {feat.name!r}")
        return feat.codes[raw]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"bad number {raw!r} for {feat.name!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {raw!r} for {feat.name!r}")
    return value


def _parse_lines(schema: FeatureSchema, lines: Iterable[tuple[int, Hashable]],
                 fields_of: Callable[[Hashable], Sequence[str]], missing: tuple[str, ...],
                 path) -> Dataset:
    """A file's lines, (line number, text), as a Dataset, _BLOCK_ROWS lines at a
    time.  One dict lookup a line splits each distinct text once by
    ``fields_of`` (no fields: a blank line, skipped); then each column of a
    block's new texts is parsed by one map through its codes or ``float``, or
    token by token through ``_cell`` where that map refuses a token (MISSING,
    padded, bad or non-finite).

    The first fault in line order, then column order, is a LoadError naming its
    line: a faulty cell, a ValueError or csv.Error from ``fields_of``, a wrong
    field count, or a LoadError from ``lines``; the last three end the pass."""
    width, index, lines, blocks, picks, new = len(schema), {}, iter(lines), [], [], 0
    maps = [{s: c for s, c in f.codes.items() if s not in missing and s == s.strip()}.__getitem__
            if f.alphabet else float for f in schema]  # a MISSING or padded symbol: _cell's
    while True:
        records, linenos, rows, faults, lineno = [], [], [], [], None
        try:
            for lineno, text in islice(lines, _BLOCK_ROWS):
                k = index.setdefault(text, new)
                if k == new:
                    fields = fields_of(text)
                    if not fields:
                        index[text] = k = -1
                    elif len(fields) != width:
                        raise ValueError(f"expected {width} fields, got {len(fields)}")
                    else:
                        records.append(fields)
                        linenos.append(lineno)
                        new += 1
                if k >= 0:
                    rows.append(k)
        except (ValueError, csv.Error, LoadError) as exc:  # after every distinct row so far
            faults.append((len(records), 0, exc if isinstance(exc, LoadError)
                           else LoadError(f"{path}: line {lineno}: {exc}")))
        values = np.empty((len(records), width))
        for j, (f, parse, tokens) in enumerate(zip(schema, maps, zip(*records))):
            try:
                column = list(map(parse, tokens))
                if f.alphabet or math.isfinite(sum(column)):
                    values[:, j] = column
                    continue
            except (KeyError, ValueError):
                pass
            for i, raw in enumerate(tokens):
                try:
                    values[i, j] = _cell(f, raw.strip(), missing)
                except ValueError as exc:
                    faults.append((i, j, LoadError(f"{path}: line {linenos[i]}: {exc}")))
                    break
        if faults:  # (row, column) is unique to a fault, so min never compares two errors
            raise min(faults)[2] from None
        blocks.append(values)
        picks.append(np.array(rows, dtype=np.intp))
        if lineno is None:  # no line left
            break
    values, picks = np.concatenate(blocks), np.concatenate(picks)
    return Dataset(schema, values if len(picks) == new else values[picks])  # no line repeats


# ---------------------------------------------------------------------------
# UCI loaders

VOWEL_TRAIN_ROWS = 528
VOWEL_TEST_ROWS = 462


def _vowel_schema(speakers: Sequence[str]) -> FeatureSchema:
    feats = [
        Feature("speaker", FeatureRole.CONTEXTUAL, "discrete", tuple(speakers)),
        Feature("sex", FeatureRole.CONTEXTUAL, "discrete", ("0", "1")),
    ]
    feats += [Feature(f"f{i}", FeatureRole.PRIMARY, "continuous") for i in range(1, 11)]
    feats.append(Feature("vowel", FeatureRole.CLASS, "discrete", tuple(str(i) for i in range(11))))
    return FeatureSchema(tuple(feats))


def _parse_vowel_file(path) -> list[tuple[int, int, list[str]]]:
    """(flag, line number, cells in schema order) of each data line, with
    speaker, sex and class written as plain integers."""
    rows, (_, fh) = [], _open_text(path)
    with fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 14:
                raise LoadError(f"{path}: line {lineno}: expected 14 fields, got {len(fields)}")
            try:
                flag = int(fields[0])
                speaker, sex, vowel = (str(int(fields[i])) for i in (1, 2, 13))
            except ValueError as exc:
                raise LoadError(f"{path}: line {lineno}: {exc}") from None
            rows.append((flag, lineno, [speaker, sex, *fields[3:13], vowel]))
    if not rows:
        raise LoadError(f"{path}: file contains no data rows")
    return rows


def load_vowel(train_path, test_path) -> tuple[Dataset, Dataset]:
    """Load the vowel benchmark (whitespace layout: flag, speaker, sex, 10 reals, class).

    The training set is the flag-0 rows of ``train_path`` and the test set
    the flag-1 rows of ``test_path``; the combined file may be passed for
    both.  A side with no rows of its flag is a LoadError.
    """
    sides = []
    for path, flag, side in ((train_path, 0, "training"), (test_path, 1, "test")):
        raw = [r for r in _parse_vowel_file(path) if r[0] == flag]
        if not raw:
            raise LoadError(f"{path}: no {side} rows (flag {flag})")
        sides.append((raw, path))
    speakers = sorted({r[2][0] for raw, _ in sides for r in raw}, key=lambda s: (len(s), s))
    schema = _vowel_schema(speakers)

    train, test = (
        _parse_lines(schema, [(n, tuple(cells)) for _, n, cells in raw], tuple, (), path)
        for raw, path in sides
    )
    if train.n_rows != VOWEL_TRAIN_ROWS:
        warnings.warn(f"vowel train has {train.n_rows} rows, expected {VOWEL_TRAIN_ROWS}")
    if test.n_rows != VOWEL_TEST_ROWS:
        warnings.warn(f"vowel test has {test.n_rows} rows, expected {VOWEL_TEST_ROWS}")
    if np.intersect1d(train.values[:, 0], test.values[:, 0]).size:
        warnings.warn("vowel train and test share speaker identities")
    return train, test


HEPATITIS_COLUMNS = (
    ("class", FeatureRole.CLASS, "discrete", ("die", "live")),
    ("age", FeatureRole.CONTEXTUAL, "continuous", None),
    ("sex", FeatureRole.CONTEXTUAL, "discrete", ("1", "2")),
    ("steroid", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("antivirals", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("fatigue", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("malaise", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("anorexia", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("liver_big", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("liver_firm", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("spleen_palpable", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("spiders", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("ascites", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("varices", FeatureRole.PRIMARY, "discrete", ("1", "2")),
    ("bilirubin", FeatureRole.PRIMARY, "continuous", None),
    ("alk_phosphate", FeatureRole.PRIMARY, "continuous", None),
    ("sgot", FeatureRole.PRIMARY, "continuous", None),
    ("albumin", FeatureRole.PRIMARY, "continuous", None),
    ("protime", FeatureRole.PRIMARY, "continuous", None),
    ("histology", FeatureRole.PRIMARY, "discrete", ("1", "2")),
)

# UCI encodes the class as 1/2; symbolic names avoid off-by-one mistakes.
HEPATITIS_CLASS_MAP = {"1": "die", "2": "live"}


def hepatitis_schema() -> FeatureSchema:
    return FeatureSchema(tuple(Feature(n, r, k, a) for n, r, k, a in HEPATITIS_COLUMNS))


def _hepatitis_fields(line: str) -> list[str]:
    """A line's fields with the class mapped to its name; an unknown class
    symbol is a ValueError."""
    line = line.strip()
    if not line:
        return []
    fields = line.split(",")
    raw = fields[0].strip()
    if raw != "?" and len(fields) == len(HEPATITIS_COLUMNS):  # else a field-count fault
        if raw not in HEPATITIS_CLASS_MAP:
            raise ValueError(f"unknown class symbol {raw!r}")
        fields[0] = HEPATITIS_CLASS_MAP[raw]
    return fields


def load_hepatitis(path) -> Dataset:
    """Load the UCI hepatitis file (comma layout, "?" for missing, class first)."""
    with _open_text(path)[1] as fh:
        dataset = _parse_lines(hepatitis_schema(), enumerate(fh, start=1), _hepatitis_fields,
                               ("?",), path)
    if not dataset.n_rows:
        raise LoadError(f"{path}: file contains no data rows")
    return dataset


# ---------------------------------------------------------------------------
# Generic CSV + schema-sidecar loader

_ROLE_BY_NAME = {r.value: r for r in FeatureRole}


def load_schema(schema_path) -> FeatureSchema:
    """Read a JSON sidecar (after one byte-order mark): a list of {name, role,
    kind, alphabet?} objects."""
    try:
        entries = json.loads(Path(schema_path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except (OSError, ValueError) as exc:  # unreadable, undecodable or not JSON
        raise LoadError(f"{schema_path}: {exc}") from None
    if not isinstance(entries, list):
        raise LoadError(f"{schema_path}: schema sidecar must be a JSON list")
    feats = []
    for e in entries:
        try:
            role = _ROLE_BY_NAME[e["role"]]
            alphabet = tuple(e["alphabet"]) if e.get("alphabet") is not None else None
            feats.append(Feature(e["name"], role, e["kind"], alphabet))
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"{schema_path}: bad schema entry {e!r}: {exc}") from None
    try:
        return FeatureSchema(tuple(feats))
    except ValueError as exc:
        raise LoadError(f"{schema_path}: {exc}") from None


def schema_to_json(schema: FeatureSchema) -> str:
    entries = []
    for f in schema:
        e = {"name": f.name, "role": f.role.value, "kind": f.kind}
        if f.alphabet is not None:
            e["alphabet"] = list(f.alphabet)
        entries.append(e)
    return json.dumps(entries, indent=2)


def _csv_records(path, lines: Iterable[str]):
    """(line number, fields) of each csv record, numbered by the file line it
    starts on; a record the csv reader rejects is a LoadError when the walk
    reaches it."""
    reader = csv.reader(lines)
    start = 1
    try:
        for fields in reader:
            yield start, tuple(fields)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise LoadError(f"{path}: line {start}: {exc}") from None


def load_table(path, schema_path) -> Dataset:
    """Load a comma-separated data file against its JSON schema sidecar; one
    leading byte-order mark is dropped from each.  In a file without a quote
    character each line is one whole csv record."""
    schema = load_schema(schema_path)
    quoted, fh = _open_text(path, newline="")
    with fh:
        if quoted:
            return _parse_lines(schema, _csv_records(path, fh), tuple, ("?", ""), path)
        handed = []  # the one line the reader reads next
        reader = csv.reader(iter(handed.pop, None))
        return _parse_lines(schema, enumerate(fh, start=1),
                            lambda line: handed.append(line) or next(reader), ("?", ""), path)


def _field_text(symbol: str, width: int) -> str:
    """A symbol as the csv module writes it in a row of ``width`` fields
    (a lone empty field is quoted)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([symbol] * width)  # its "\r\n" also decides the quoting
    row = buf.getvalue()[:-2]  # width equal fields and the commas between them
    return row[: (len(row) - width + 1) // width]


def write_table(dataset: Dataset, path, schema_path=None) -> None:
    """Write a dataset as CSV (floats via repr, so values round-trip exactly),
    _BLOCK_ROWS rows at a time, each block a column at a time: the bytes
    ``csv.writer`` writes, "?" for MISSING."""
    schema = dataset.schema
    texts = [[_field_text(s, len(schema)) for s in f.alphabet] if f.alphabet else None
             for f in schema]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for block in np.split(dataset.values, range(_BLOCK_ROWS, dataset.n_rows, _BLOCK_ROWS)):
            columns = [["?" if c != c else text[int(c)] if text else repr(c) for c in cells]
                       for text, cells in zip(texts, block.T.tolist())]
            fh.write("\r\n".join([*map(",".join, zip(*columns)), ""]))  # "\r\n" ends each row
    if schema_path is not None:
        Path(schema_path).write_text(schema_to_json(schema) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Splits

def split_random(dataset: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Unstratified random partition via Fisher-Yates (Python's MT19937 shuffle).

    The PRNG identity is part of the interface: the same (dataset, n_train,
    seed) always yields the same partition.  Row order inside each part
    follows the original dataset order.
    """
    n = dataset.n_rows
    if not 0 < n_train < n:
        raise ValueError(f"n_train must be in (0, {n}), got {n_train}")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    train_idx = sorted(indices[:n_train])
    test_idx = sorted(indices[n_train:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


# ---------------------------------------------------------------------------
# Joint distributions and synthetic generation

_JSON_SCALARS = (str, int, float, bool, type(None))
#: a JointDistribution's probabilities sum to 1 within this, so no test on
#: one takes a smaller tolerance: below it, rounding decides the outcome
SUM_TOLERANCE = 1e-12


def _json_get(obj, key: str, kind: type | tuple = _JSON_SCALARS, items: tuple = (dict,)):
    """obj[key] of a JSON object, a kind (if a list, of items); else a ValueError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing key {key!r} in {json.dumps(obj)[:40]}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, list) and not all(
            isinstance(v, items) for v in value):
        raise ValueError(f"wrong JSON type for {key!r}: {json.dumps(value)[:40]}")
    return value


@dataclass(frozen=True)
class JointDistribution:
    """Explicit discrete joint distribution of a class and its features.

    ``probs`` maps tuples, one symbol per variable, to probabilities;
    ``class_var`` names the class variable (default: the first variable).
    The constructor raises ValueError on the first fault: at least one
    variable, one alphabet per variable, unique names, a known class variable,
    non-empty alphabets, then tuple by tuple one symbol per variable, each in
    its alphabet, and a non-negative probability, and last a sum within 1e-12
    of 1.  That one walk encodes the tuples through ``schema()``: ``support``
    holds them as a Dataset and ``p`` their probabilities, both in ``probs``
    order.  The type is read from JSON, sampled and estimated from data.
    """

    variables: tuple[str, ...]
    alphabets: tuple[tuple[str, ...], ...]
    probs: Mapping[tuple[str, ...], float] = field(hash=False)
    class_var: str = ""
    support: Dataset = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.variables:
            raise ValueError("a joint distribution needs at least one variable")
        if len(self.variables) != len(self.alphabets):
            raise ValueError("one alphabet per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variable names {self.variables!r} are not unique")
        if not self.class_var:
            object.__setattr__(self, "class_var", self.variables[0])
        elif self.class_var not in self.variables:
            raise ValueError(f"unknown class variable {self.class_var!r}")
        schema = self.schema()
        codes, rows, p, total = [f.codes for f in schema], [], [], 0.0
        for tup, prob in self.probs.items():
            if len(tup) != len(codes):
                raise ValueError(f"tuple {tup!r} does not match variable count")
            try:
                rows.append(list(map(dict.__getitem__, codes, tup)))
            except KeyError:  # name the first symbol outside its alphabet
                sym, var = next((s, v) for s, v, c in zip(tup, self.variables, codes)
                                if s not in c)
                raise ValueError(f"symbol {sym!r} not in alphabet of {var!r}") from None
            if not prob >= 0:
                raise ValueError(f"probability {prob!r} for {tup!r} is negative or not a number")
            total += prob
            p.append(prob)
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", _from_cells(schema, rows))
        object.__setattr__(self, "p", np.array(p, dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        """Read the layout ``to_json`` writes; a document of another shape is
        a ValueError that names the first fault."""
        doc = json.loads(text)
        variables = _json_get(doc, "variables", list)
        names = tuple(_json_get(v, "name") for v in variables)
        alphabets = tuple(tuple(_json_get(v, "values", list, _JSON_SCALARS)) for v in variables)
        probs = {}
        for e in _json_get(doc, "probabilities", list):
            t = tuple(_json_get(e, "tuple", list, _JSON_SCALARS))
            if t in probs:
                raise ValueError(f"repeated tuple {json.dumps(list(t))}")
            probs[t] = float(_json_get(e, "prob", (int, float)))
        return cls(names, alphabets, probs, _json_get(doc, "class") if "class" in doc else "")

    def to_json(self) -> str:
        """The JSON layout ``from_json`` reads.  Its "class" key names the class
        variable, and is written only when that is not the first variable,
        which is the default."""
        doc = {
            "variables": [
                {"name": n, "values": list(a)} for n, a in zip(self.variables, self.alphabets)
            ],
            "probabilities": [
                {"tuple": list(t), "prob": p} for t, p in sorted(self.probs.items())
            ],
        }
        if self.class_var != self.variables[0]:
            doc["class"] = self.class_var
        return json.dumps(doc, indent=2)

    def schema(self) -> FeatureSchema:
        """One discrete feature per variable, the class role on ``class_var``
        and the primary role on the others."""
        return FeatureSchema(tuple(
            Feature(n, FeatureRole.CLASS if n == self.class_var else FeatureRole.PRIMARY,
                    "discrete", a)
            for n, a in zip(self.variables, self.alphabets)
        ))

    def index_of(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise KeyError(f"unknown variable {var!r}") from None

    def alphabet_of(self, var: str) -> tuple[str, ...]:
        return self.alphabets[self.index_of(var)]

    def _check(self, var: str, value: str) -> None:
        if value not in self.alphabet_of(var):
            raise KeyError(f"value {value!r} not in alphabet of {var!r}")

    def marginal(self, assignment: Mapping[str, str]) -> float:
        """Probability that every variable in ``assignment`` takes its value."""
        idx = {}
        for var, val in assignment.items():
            self._check(var, val)
            idx[self.index_of(var)] = val
        total = 0.0
        for tup, p in self.probs.items():
            if all(tup[i] == v for i, v in idx.items()):
                total += p
        return total


def sample_from(dist: JointDistribution, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows of ``dist.support``: one uniform draw per row,
    located in the cumulative ``dist.p`` of the tuples in sorted order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = sorted(range(len(dist.probs)), key=list(dist.probs).__getitem__)
    cumulative = list(accumulate(dist.p[order].tolist()))
    rng = random.Random(seed)
    picks = [order[bisect_left(cumulative, rng.random() * cumulative[-1])] for _ in range(n)]
    return dist.support.subset(picks)


@dataclass(frozen=True)
class PlantedContextParams:
    """Generator parameters for the synthetic context-shift benchmark.

    Each primary feature is class signal (class index, spaced 1.0 apart)
    plus ``shift`` times a continuous context value plus Gaussian noise.
    Train and test draw their context from disjoint ranges, so a classifier
    that ignores context faces an out-of-range offset at test time.
    """

    n_classes: int = 4
    n_primary: int = 3
    n_train: int = 200
    n_test: int = 200
    shift: float = 5.0
    noise: float = 0.1
    train_context: tuple[float, float] = (0.0, 1.0)
    test_context: tuple[float, float] = (2.0, 3.0)

    def __post_init__(self):
        if self.n_classes < 2 or self.n_primary < 1:
            raise ValueError("need at least 2 classes and 1 primary feature")
        if self.n_train < self.n_classes or self.n_test < 1:
            raise ValueError("too few rows requested")
        if not (0 <= self.shift < math.inf and 0 <= self.noise < math.inf):
            raise ValueError("shift and noise must be finite and nonnegative")
        for lo, hi in (self.train_context, self.test_context):
            if not lo < hi:
                raise ValueError("context ranges must be non-degenerate (lo < hi)")


def planted_context_schema(params: PlantedContextParams) -> FeatureSchema:
    feats = [Feature("condition", FeatureRole.CONTEXTUAL, "continuous")]
    feats += [Feature(f"p{i}", FeatureRole.PRIMARY, "continuous") for i in range(1, params.n_primary + 1)]
    feats.append(
        Feature(
            "class",
            FeatureRole.CLASS,
            "discrete",
            tuple(f"c{i}" for i in range(params.n_classes)),
        )
    )
    return FeatureSchema(tuple(feats))


def plant_context_dataset(
    params: PlantedContextParams, seed: int
) -> tuple[Dataset, Dataset]:
    """Generate a train/test pair whose contexts do not overlap: row r of a
    set has class r mod n_classes, context c = uniform(lo, hi) and primaries
    class + shift * c + noise * gauss(0, 1), as one Random(seed) gives them
    row by row, train then test.  That stream is drawn at once, each uniform
    and Box-Muller pair found in it by index; log, cos and sin are ``math``'s."""
    schema = planted_context_schema(params)
    n, d = params.n_train + params.n_test, params.n_primary
    pairs = (n * d + 1) // 2  # two gauss values each; an odd n * d leaves a sin unused
    draws = n + 2 * pairs  # random() calls: one a row, two a pair
    stream = random.Random(seed).getrandbits(64 * draws).to_bytes(8 * draws, "little")
    words = np.frombuffer(stream, "<u4")  # random() joins (w0 >> 5, w1 >> 6) of two words
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0 ** -53
    rows, j = np.arange(n), np.arange(pairs)
    at = 2 * j + 1 + 2 * j // d  # pair j's first draw: after its row's uniform
    x2pi = (u[at] * (2.0 * math.pi)).tolist()
    g2rad = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - u[at + 1]).tolist()))))
    gauss = (np.column_stack([list(map(math.cos, x2pi)), list(map(math.sin, x2pi))])
             * g2rad[:, None]).ravel()[: n * d].reshape(n, d)
    lo, hi = np.repeat([params.train_context, params.test_context],
                       [params.n_train, params.n_test], axis=0).T
    cls = np.concatenate([np.arange(params.n_train), np.arange(params.n_test)]) % params.n_classes
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        c = lo + (hi - lo) * u[rows + 2 * ((rows * d + 1) // 2)]  # after earlier rows' draws
        primary = cls[:, None] + params.shift * c[:, None] + params.noise * gauss
    values = np.column_stack([c, primary, cls])
    if not np.isfinite(values).all():
        raise NonFiniteRowsError("planted rows would not be finite: shift or noise too large")
    return Dataset(schema, values[: params.n_train]), Dataset(schema, values[params.n_train:])

"""Seeded inputs, command lines and output checks for the benchmark workloads.

Each ``prepare_*`` function writes a workload's input files into a work
directory from a seed (the same seed always gives the same bytes) and returns
a :class:`Workload`: the ``ctxclass`` command lines of one pass, the files
each command writes, the input properties to report, and a check that one
pass's outputs are right.  The checks look only at the outputs, so they hold
for every seed; the recorded digests in ``digests.json`` pin the exact bytes
for the default seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the command writes, relative to the work dir


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    inputs: dict
    # outputs of one pass, keyed "<label>:stdout" or "<label>:<file>", to a
    # list of problems (empty when the outputs are right)
    check: Callable[[dict[str, bytes]], list[str]] = field(repr=False)


def _half_up_percent(correct: int, total: int) -> int:
    return int(math.floor(100.0 * correct / total + 0.5))


def _check_cells(rows: list[list[str]], keys: list[tuple[str, ...]], total: int) -> list[str]:
    """Rows of a report CSV: the key columns in the given order, then
    correct, total and a half-up rounded percent."""
    problems = []
    if [tuple(r[: len(keys[0])]) for r in rows] != keys:
        problems.append(f"report rows {[r[:len(keys[0])] for r in rows]} are not {keys}")
        return problems
    for r in rows:
        correct, tot, pct = int(r[-3]), int(r[-2]), int(r[-1])
        if tot != total or not 0 <= correct <= tot or pct != _half_up_percent(correct, tot):
            problems.append(f"bad cell {r}")
    return problems


def _csv_rows(data: bytes) -> list[list[str]]:
    return [r for r in csv.reader(io.StringIO(data.decode())) if r]


# ---------------------------------------------------------------------------
# hepatitis-grid: the 8-combo strategy grid over 10 seeded splits, nn and mlr

HEPATITIS_ROWS = 155
HEPATITIS_TRAIN_ROWS = 100  # run-grid's default split size
HEPATITIS_SPLITS = 10
HEPATITIS_MISSING_RATE = 0.06
HEPATITIS_FEATURES = 19  # age and sex as context, 12 discrete and 5 continuous primaries


def hepatitis_text(seed: int) -> str:
    """Rows in the UCI hepatitis layout (class 1=die / 2=live, age, sex,
    eleven 1/2 symptoms, five lab values, histology) with an age drift in
    the lab values and '?' cells anywhere but the class and age columns."""
    rng = random.Random(seed)
    lines = []
    for _ in range(HEPATITIS_ROWS):
        die = rng.random() < 0.25
        age = rng.randrange(20, 75)
        drift = (age - 45) / 10.0
        fields = ["1" if die else "2", str(age), "1" if rng.random() < 0.9 else "2"]
        symptoms = ["2" if rng.random() < (0.7 if die else 0.3) else "1" for _ in range(12)]
        labs = [
            1.0 + (3.0 if die else 0.5) * rng.random() + drift,
            60 + 40 * rng.random() + 10 * drift,
            20 + (200 if die else 60) * rng.random(),
            2.5 + 1.5 * rng.random() - (0.8 if die else 0.0),
            30 + 60 * rng.random() + (0 if die else 20),
        ]
        fields += symptoms[:11] + [f"{x:.1f}" for x in labs] + symptoms[11:]
        fields = [
            f if i < 2 or rng.random() >= HEPATITIS_MISSING_RATE else "?"
            for i, f in enumerate(fields)
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


_STRATEGY_KEYS = [
    tuple("Yes" if (combo >> bit) & 1 else "No" for bit in (2, 1, 0)) for combo in range(8)
]


def _check_grid(outputs: dict[str, bytes], label: str) -> list[str]:
    txt = outputs[f"{label}:grid-{label}.txt"].decode()
    rows = _csv_rows(outputs[f"{label}:grid-{label}.csv"])
    total = HEPATITIS_SPLITS * (HEPATITIS_ROWS - HEPATITIS_TRAIN_ROWS)
    problems = _check_cells(rows, _STRATEGY_KEYS, total)
    if problems:
        return [f"{label}: {p}" for p in problems]
    pct = {tuple(r[:3]): int(r[5]) for r in rows}
    base = pct[("No", "No", "No")]
    singles = sum(pct[k] - base for k in (("Yes", "No", "No"), ("No", "Yes", "No"), ("No", "No", "Yes")))
    joint = pct[("Yes", "Yes", "Yes")] - base
    expected = f"{txt}\nsynergy: separate strategies gain {singles} points, together {joint} points\n"
    if outputs[f"{label}:stdout"].decode() != expected:
        problems.append(f"{label}: stdout is not the report table plus its synergy line")
    json.loads(outputs[f"{label}:grid-{label}.schema.json"])
    return problems


def prepare_hepatitis(workdir: Path, seed: int) -> Workload:
    text = hepatitis_text(seed)
    (workdir / "hepatitis.data").write_text(text)
    commands = tuple(
        Command(
            clf,
            ("run-grid", "--dataset", "hepatitis", "--data", "hepatitis.data",
             "--splits", str(HEPATITIS_SPLITS), "--seed", "0", "--classifier", clf,
             "--out", f"grid-{clf}"),
            tuple(f"grid-{clf}{ext}" for ext in (".txt", ".csv", ".schema.json")),
        )
        for clf in ("nn", "mlr")
    )
    n_test = HEPATITIS_ROWS - HEPATITIS_TRAIN_ROWS
    inputs = {
        "rows": HEPATITIS_ROWS,
        "features": HEPATITIS_FEATURES,
        "missing_cells": sum(line.split(",").count("?") for line in text.splitlines()),
        "splits": HEPATITIS_SPLITS,
        # nn distance tensor per evaluation, largest design (17 primaries + expanded age)
        "nn_tensor_bytes_computed": n_test * HEPATITIS_TRAIN_ROWS * (HEPATITIS_FEATURES - 1) * 8,
    }

    def check(outputs):
        return _check_grid(outputs, "nn") + _check_grid(outputs, "mlr")

    return Workload("hepatitis-grid", commands, inputs, check)


# ---------------------------------------------------------------------------
# normalizers-n1000: synth a planted-context pair, then 7 normalizers x 2 classifiers

SYNTH_FEATURES = 10
SYNTH_ROWS = 1000
NORMALIZERS = ("none", "minmax", "zscore", "percentile", "baseline",
               "contextual-nn", "contextual-linear")


def prepare_normalizers(workdir: Path, seed: int) -> Workload:
    commands = (
        Command(
            "synth",
            ("synth", "--features", str(SYNTH_FEATURES), "--train-rows", str(SYNTH_ROWS),
             "--test-rows", str(SYNTH_ROWS), "--seed", str(seed), "--out", "pair"),
            ("pair.train.csv", "pair.train.schema.json", "pair.test.csv", "pair.test.schema.json"),
        ),
        Command(
            "compare",
            ("compare-normalizers", "--train", "pair.train.csv",
             "--train-schema", "pair.train.schema.json", "--test", "pair.test.csv",
             "--test-schema", "pair.test.schema.json", "--out", "compare"),
            ("compare.txt", "compare.csv", "compare.schema.json"),
        ),
    )
    inputs = {
        "train_rows": SYNTH_ROWS,
        "test_rows": SYNTH_ROWS,
        "features": SYNTH_FEATURES + 1,  # primaries plus the continuous context
        "missing_cells": 0,
        "nn_tensor_bytes_computed": SYNTH_ROWS * SYNTH_ROWS * SYNTH_FEATURES * 8,
    }

    def check(outputs):
        problems = []
        if outputs["synth:stdout"] != b"wrote pair.train.csv and pair.test.csv\n":
            problems.append("synth: unexpected stdout")
        for part in ("train", "test"):
            rows = _csv_rows(outputs[f"synth:pair.{part}.csv"])
            if len(rows) != SYNTH_ROWS or any(len(r) != SYNTH_FEATURES + 2 for r in rows):
                problems.append(f"synth: pair.{part}.csv is not {SYNTH_ROWS} rows of {SYNTH_FEATURES + 2} cells")
        keys = [(c, n) for c in ("nn", "mlr") for n in NORMALIZERS]
        problems += _check_cells(_csv_rows(outputs["compare:compare.csv"]), keys, SYNTH_ROWS)
        if outputs["compare:stdout"] != outputs["compare:compare.txt"] + b"\n":
            problems.append("compare: stdout is not the report table")
        return problems

    return Workload("normalizers-n1000", commands, inputs, check)


# ---------------------------------------------------------------------------
# taxonomy-d7: the worked distribution plus four uniform irrelevant features,
# labelled exactly from its spec and then from 20k sampled rows

# The paper's worked example: class x0, x1 primary and sensitive to x2,
# x2 contextual, x3 irrelevant.
WORKED_PROBS = {
    "0000": 0.03, "0001": 0.03, "0010": 0.08, "0011": 0.08,
    "0100": 0.07, "0101": 0.07, "0110": 0.07, "0111": 0.07,
    "1000": 0.07, "1001": 0.07, "1010": 0.07, "1011": 0.07,
    "1100": 0.03, "1101": 0.03, "1110": 0.08, "1111": 0.08,
}
TAXONOMY_IRRELEVANT = 4
TAXONOMY_SAMPLE_ROWS = 20_000
TAXONOMY_VARIABLES = tuple(f"x{i}" for i in range(4 + TAXONOMY_IRRELEVANT))
EXACT_LABELS = {"x1": ("primary", "x2"), "x2": ("contextual", "-")} | {
    v: ("irrelevant", "-") for v in TAXONOMY_VARIABLES[3:]
}


def taxonomy_probs() -> dict[tuple[str, ...], float]:
    scale = 2 ** TAXONOMY_IRRELEVANT
    probs = {}
    for head, p in WORKED_PROBS.items():
        for tail in range(scale):
            bits = format(tail, f"0{TAXONOMY_IRRELEVANT}b")
            probs[tuple(head + bits)] = p / scale
    return probs


def taxonomy_sample(probs: dict[tuple[str, ...], float], n: int, seed: int) -> list[tuple[str, ...]]:
    tuples = sorted(probs)
    return random.Random(seed).choices(tuples, weights=[probs[t] for t in tuples], k=n)


def _verdict_table(labels: dict[str, tuple[str, str]]) -> str:
    lines = [f"{'feature':<16} {'label':<12} sensitive to"]
    lines += [f"{name:<16} {label:<12} {sens}" for name, (label, sens) in labels.items()]
    return "\n".join(lines) + "\n"


def prepare_taxonomy(workdir: Path, seed: int) -> Workload:
    probs = taxonomy_probs()
    spec = {
        "variables": [{"name": v, "values": ["0", "1"]} for v in TAXONOMY_VARIABLES],
        "probabilities": [{"tuple": list(t), "prob": p} for t, p in sorted(probs.items())],
    }
    (workdir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    rows = taxonomy_sample(probs, TAXONOMY_SAMPLE_ROWS, seed)
    (workdir / "sample.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    schema = [
        {"name": v, "role": "class" if i == 0 else "primary", "kind": "discrete",
         "alphabet": ["0", "1"]}
        for i, v in enumerate(TAXONOMY_VARIABLES)
    ]
    (workdir / "sample.schema.json").write_text(json.dumps(schema, indent=1) + "\n")
    commands = (
        Command("spec", ("taxonomy", "--spec", "spec.json", "--json", "spec-verdict.json"),
                ("spec-verdict.json",)),
        Command("data", ("taxonomy", "--data", "sample.csv", "--schema", "sample.schema.json",
                         "--json", "data-verdict.json"),
                ("data-verdict.json",)),
    )
    inputs = {
        "features": len(TAXONOMY_VARIABLES) - 1,
        "spec_support": len(probs),
        "sample_rows": TAXONOMY_SAMPLE_ROWS,
        "estimated_support": len(set(rows)),
        "missing_cells": 0,
    }

    def check(outputs):
        problems = []
        if outputs["spec:stdout"].decode() != _verdict_table(EXACT_LABELS):
            problems.append("spec: verdict differs from the worked example's exact labels")
        spec_json = json.loads(outputs["spec:spec-verdict.json"])
        if spec_json["labels"] != {k: v[0] for k, v in EXACT_LABELS.items()}:
            problems.append("spec: JSON labels differ from the exact labels")
        data_json = json.loads(outputs["data:data-verdict.json"])
        labels = data_json["labels"]
        if list(labels) != list(TAXONOMY_VARIABLES[1:]) or labels["x1"] != "primary":
            problems.append(f"data: labels {labels} do not list x1..x7 with x1 primary")
        else:
            table = {k: (v, ", ".join(data_json["sensitive_to"].get(k, [])) or "-")
                     for k, v in labels.items()}
            if outputs["data:stdout"].decode() != _verdict_table(table):
                problems.append("data: stdout table disagrees with the JSON verdict")
        return problems

    return Workload("taxonomy-d7", commands, inputs, check)


def prepare_normalizers_taxonomy(workdir: Path, seed: int) -> Workload:
    """normalizers-n1000 followed by taxonomy-d7 in one pass.  Two workloads
    instead of three let each run measure twice as long in the same time
    budget, which the drifting speed of a shared host needs."""
    parts = (prepare_normalizers(workdir, seed), prepare_taxonomy(workdir, seed))
    return Workload(
        "normalizers-taxonomy",
        tuple(cmd for part in parts for cmd in part.commands),
        {part.name: part.inputs for part in parts},
        lambda outputs: [problem for part in parts for problem in part.check(outputs)],
    )


PREPARE = {
    "hepatitis-grid": prepare_hepatitis,
    "normalizers-taxonomy": prepare_normalizers_taxonomy,
}

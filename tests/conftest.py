"""Shared fixtures: the worked four-variable distribution, synthetic files in
the two UCI layouts, and discovery of the real benchmark files.

The real vowel and hepatitis files are not distributed with this package.
Point CTXCLASS_DATA_DIR at a directory containing ``vowel-context.data``
(or ``vowel.train`` / ``vowel.test``) and ``hepatitis.data`` to enable the
benchmark-reproduction tests; without them those tests are skipped.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from ctxclass import data

# ---------------------------------------------------------------------------
# The worked example distribution: binary class, one primary feature that is
# sensitive to one contextual feature, and one irrelevant feature.

WORKED_PROBS = {
    ("0", "0", "0", "0"): 0.03,
    ("0", "0", "0", "1"): 0.03,
    ("0", "0", "1", "0"): 0.08,
    ("0", "0", "1", "1"): 0.08,
    ("0", "1", "0", "0"): 0.07,
    ("0", "1", "0", "1"): 0.07,
    ("0", "1", "1", "0"): 0.07,
    ("0", "1", "1", "1"): 0.07,
    ("1", "0", "0", "0"): 0.07,
    ("1", "0", "0", "1"): 0.07,
    ("1", "0", "1", "0"): 0.07,
    ("1", "0", "1", "1"): 0.07,
    ("1", "1", "0", "0"): 0.03,
    ("1", "1", "0", "1"): 0.03,
    ("1", "1", "1", "0"): 0.08,
    ("1", "1", "1", "1"): 0.08,
}


def worked_spec() -> data.JointDistribution:
    return data.JointDistribution(
        variables=("x0", "x1", "x2", "x3"),
        alphabets=(("0", "1"),) * 4,
        probs=dict(WORKED_PROBS),
    )


@pytest.fixture(scope="session")
def table_spec() -> data.JointDistribution:
    return worked_spec()


@pytest.fixture(scope="session")
def worked_dist(table_spec):
    return table_spec


# ---------------------------------------------------------------------------
# Synthetic stand-ins in the two UCI file layouts.  These exercise loaders,
# pipelines, and grids end to end; they do not reproduce the reference
# accuracy numbers.

N_VOWELS = 11
REPS = 6


def make_vowel_text(seed: int = 0) -> str:
    """One combined file in the vowel-context layout: 8 training speakers
    (flag 0) and 7 testing speakers (flag 1), 11 vowels x 6 repetitions
    each, with planted per-speaker offset and scale so contextual
    normalization genuinely helps."""
    rng = random.Random(seed)
    vowel_means = [
        [rng.uniform(-1, 1) for _ in range(10)] for _ in range(N_VOWELS)
    ]
    lines = []
    for spk in range(15):
        flag = 0 if spk < 8 else 1
        sex = 0 if (spk % 8) < 4 else 1
        offset = [rng.uniform(-2, 2) + (0.5 if sex else -0.5) for _ in range(10)]
        scale = [rng.uniform(0.5, 2.0) for _ in range(10)]
        for v in range(N_VOWELS):
            for _ in range(REPS):
                feats = [
                    offset[f] + scale[f] * (vowel_means[v][f] + 0.15 * rng.gauss(0, 1))
                    for f in range(10)
                ]
                fields = [str(flag), str(spk), str(sex)] + [f"{x:.4f}" for x in feats] + [str(v)]
                lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def vowel_file(tmp_path_factory) -> Path:
    p = tmp_path_factory.mktemp("vowel") / "vowel-context.data"
    p.write_text(make_vowel_text())
    return p


@pytest.fixture(scope="session")
def synthetic_vowel_pair(vowel_file):
    return data.load_vowel(vowel_file, vowel_file)


def make_hepatitis_text(seed: int = 0, n_rows: int = 155, missing_rate: float = 0.06) -> str:
    """155 rows in the UCI hepatitis layout with a planted age effect on the
    continuous features and '?' cells sprinkled outside the class column."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_rows):
        die = rng.random() < 0.25
        age = rng.randrange(20, 75)
        age_drift = (age - 45) / 10.0
        sex = "1" if rng.random() < 0.9 else "2"
        bools = []
        for b in range(12):
            p_yes = 0.7 if die else 0.3
            bools.append("2" if rng.random() < p_yes else "1")
        cont = [
            1.0 + (3.0 if die else 0.5) * rng.random() + age_drift,  # bilirubin-like
            60 + 40 * rng.random() + 10 * age_drift,
            20 + (200 if die else 60) * rng.random(),
            2.5 + 1.5 * rng.random() - (0.8 if die else 0.0),
            30 + 60 * rng.random() + (20 if not die else 0),
        ]
        fields = ["1" if die else "2", str(age), sex]
        fields += bools[:11]
        fields += [f"{c:.1f}" for c in cont]
        fields.append(bools[11])
        out = [
            f if (i < 2 or rng.random() > missing_rate) else "?"
            for i, f in enumerate(fields)
        ]
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def hepatitis_file(tmp_path_factory) -> Path:
    p = tmp_path_factory.mktemp("hep") / "hepatitis.data"
    p.write_text(make_hepatitis_text())
    return p


@pytest.fixture(scope="session")
def synthetic_hepatitis(hepatitis_file):
    return data.load_hepatitis(hepatitis_file)


# ---------------------------------------------------------------------------
# Real benchmark files, if the user has them.

def _find_real(*names: str) -> Path | None:
    roots = []
    env = os.environ.get("CTXCLASS_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        for name in names:
            p = root / name
            if p.exists():
                return p
    return None


SKIP_REAL = (
    "real benchmark file not available; set CTXCLASS_DATA_DIR to a directory "
    "with vowel-context.data and hepatitis.data"
)


@pytest.fixture(scope="session")
def real_vowel_pair():
    combined = _find_real("vowel-context.data")
    if combined is not None:
        return data.load_vowel(combined, combined)
    train = _find_real("vowel.train")
    test = _find_real("vowel.test")
    if train is not None and test is not None:
        return data.load_vowel(train, test)
    pytest.skip(SKIP_REAL)


@pytest.fixture(scope="session")
def real_hepatitis():
    p = _find_real("hepatitis.data")
    if p is None:
        pytest.skip(SKIP_REAL)
    return data.load_hepatitis(p)


@pytest.fixture(scope="session")
def any_vowel_pair(synthetic_vowel_pair):
    """Real pair when available, synthetic stand-in otherwise (for checks
    that are properties of the code, not of the recorded data)."""
    combined = _find_real("vowel-context.data")
    if combined is not None:
        return data.load_vowel(combined, combined)
    return synthetic_vowel_pair


@pytest.fixture(scope="session")
def any_hepatitis(synthetic_hepatitis):
    p = _find_real("hepatitis.data")
    if p is not None:
        return data.load_hepatitis(p)
    return synthetic_hepatitis


# ---------------------------------------------------------------------------
# One-line verdict per acceptance check in the terminal summary.

def pytest_terminal_summary(terminalreporter):
    rows = {}
    for outcome in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            # a test skipped from a fixture reports in its setup phase
            if rep.when == "call" or (rep.when == "setup" and outcome == "skipped"):
                rows[nodeid] = outcome.upper()
    if rows:
        terminalreporter.write_sep("-", "acceptance checks")
        for nodeid in sorted(rows):
            name = nodeid.split("::", 1)[1]
            terminalreporter.write_line(f"{rows[nodeid]:7s} {name}")

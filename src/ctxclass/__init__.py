"""Context-sensitive feature classification toolkit.

Subpackages: ``data`` (datasets, loaders, splits, joint distributions,
synthetic generation), ``taxonomy`` (primary/contextual/irrelevant feature
tests), ``preprocess`` (normalization, weighting, expansion, imputation),
``classify`` (nearest neighbor and linear discriminant), ``harness``
(experiment grids), and ``cli`` (command line).
"""

from .data import (
    MISSING,
    Dataset,
    Feature,
    FeatureRole,
    FeatureSchema,
    JointDistribution,
    LoadError,
    PlantedContextParams,
    load_hepatitis,
    load_table,
    load_vowel,
    plant_context_dataset,
    sample_from,
    split_random,
    write_table,
)
from .taxonomy import (
    classify_features,
    cond_prob,
    estimate_distribution,
    is_context_sensitive,
    is_contextual,
    is_primary,
)

__version__ = "0.1.0"

"""Learned narrative-essence extraction via a contrastive ordering objective."""

from .model import EssenceModel, ExtractorArch, ScorerArch
from .objective import info_nce_loss, mi_lower_bound, pearson
from .training import Adam, EpochStats, TrainConfig, probe_feature_mi, train

__all__ = [
    "Adam",
    "EpochStats",
    "EssenceModel",
    "ExtractorArch",
    "ScorerArch",
    "TrainConfig",
    "info_nce_loss",
    "mi_lower_bound",
    "pearson",
    "probe_feature_mi",
    "train",
]

"""Learned narrative-essence extraction via a contrastive ordering objective."""

from .model import EssenceModel
from .training import TrainConfig, probe_feature_mi, train

__all__ = ["EssenceModel", "TrainConfig", "probe_feature_mi", "train"]

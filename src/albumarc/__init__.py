"""Narrative-arc learning over ordered track collections.

Learns a per-track scalar (the narrative essence) whose sequence carries
maximal information about an album's authored order, distills prototypical
arc templates from the learned sequences, reorders collections onto a
template with an optimal-assignment fit, and validates templates against
ground-truth orderings.
"""

from .core import Ordering
from .errors import AlbumArcError, ConfigError, IngestError, TrainingDiverged
from .essence import TrainConfig, train
from .evaluation import EvalReport, evaluate_templates
from .fitcurve import FitResult, fit_ordering
from .ingest import SynthConfig, synth_generate
from .spline import build_spline
from .templates import GAConfig, TemplateSet, evolve_templates

__version__ = "0.1.0"

__all__ = [
    "AlbumArcError",
    "ConfigError",
    "EvalReport",
    "FitResult",
    "GAConfig",
    "IngestError",
    "Ordering",
    "SynthConfig",
    "TemplateSet",
    "TrainConfig",
    "TrainingDiverged",
    "build_spline",
    "evaluate_templates",
    "evolve_templates",
    "fit_ordering",
    "synth_generate",
    "train",
]

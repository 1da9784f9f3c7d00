"""Session fixtures shared by module suites and the acceptance gate.

Training runs dominate suite wall time, so the expensive models are trained
once per session and reused: the default-config model backs the MI-sanity and
statistical-protocol tests; the converged narrow-extractor pair backs the
dimensionality sweep and the probe self-consistency check.
"""

import os
import time

# One BLAS thread: a second OpenBLAS thread doubles the suite's CPU time and
# saves no wall time.  Set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from albumarc.core import N_STATS
from albumarc.essence import TrainConfig, train
from albumarc.essence import autodiff as ad
from albumarc.essence.objective import batch_loss_graph
from albumarc.ingest import SYNTH_LATENT_SLOTS, SynthConfig, synth_generate

PLANTED_SEED = 11
TRAIN_SEED = 5

# Converged comparison config for the dimensionality sweep: the narrower
# extractor reaches its plateau for both d=1 and d=16 inside the suite budget.
SWEEP_KW = dict(extractor_hidden=32, max_epochs=400, patience=60)

# Wall seconds spent building each trained-model fixture, so runtime-bounded
# acceptance checks can account for work done before their test body runs.
FIXTURE_SECONDS = {}


def _timed_train(name, dataset, config):
    start = time.monotonic()
    result = train(dataset, config)
    FIXTURE_SECONDS[name] = time.monotonic() - start
    return result


def info_nce_loss(scores, true_index: int) -> float:
    """Contrastive loss in nats: -log softmax(scores)[true_index].

    Computed with a max shift for numerical stability.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need at least 2 scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("non-finite score")
    if not 0 <= true_index < s.size:
        raise ValueError("true_index out of range")
    shift = s.max()
    return float(np.log(np.exp(s - shift).sum()) - (s[true_index] - shift))


def validation_mi(model, history) -> float:
    """MI bound in bits at the early-stopping epoch."""
    if not history:
        raise ValueError("empty history")
    return max(h.val_mi_bits for h in history)


def essence_map(model, dataset):
    """track_id -> scalar essence for every track in the dataset."""
    out = {}
    for album in dataset.albums:
        values = model.extract_matrix(album.features)[:, 0]
        for track, value in zip(album.tracks, values):
            out[track.track_id] = float(value)
    return out


def planted_latent(album) -> np.ndarray:
    """Read the embedded latents back from a synthetic album's features, one
    per track in album order (noisy if the dataset was generated with noise)."""
    row, col = SYNTH_LATENT_SLOTS[0]
    return album.features[:, row * N_STATS + col]


def album_loss_graph(model, x_std, perms, ext_params, sco_params, dropout_mask=None):
    """Scalar contrastive-loss graph for one album: the package's batch loss
    on a batch of one.

    ``x_std`` is the standardized (length, in_dim) feature matrix and
    ``perms`` the (N, length) permutation-index matrix with the true order in
    row 0.
    """
    essence = model.extractor_graph(x_std, ext_params, dropout_mask)
    return ad.reshape(batch_loss_graph(essence, [len(x_std)], [perms[None]], sco_params), ())


def pearson(a, b) -> float:
    """Pearson correlation coefficient of two equal-length series."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D series")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("correlation undefined for a constant series")
    xc = x - x.mean()
    yc = y - y.mean()
    r = float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))
    return max(-1.0, min(1.0, r))


@pytest.fixture(scope="session")
def planted_dataset():
    return synth_generate(
        SynthConfig(n_albums=200, latent_shape="rising", noise_sigma=0.0, seed=PLANTED_SEED)
    )


@pytest.fixture(scope="session")
def default_trained(planted_dataset):
    """Model + history at library-default training settings."""
    return _timed_train("default_trained", planted_dataset, TrainConfig(seed=TRAIN_SEED))


@pytest.fixture(scope="session")
def sweep_d1(planted_dataset):
    return _timed_train(
        "sweep_d1", planted_dataset, TrainConfig(seed=TRAIN_SEED, essence_dim=1, **SWEEP_KW)
    )


@pytest.fixture(scope="session")
def sweep_d16(planted_dataset):
    return _timed_train(
        "sweep_d16", planted_dataset, TrainConfig(seed=TRAIN_SEED, essence_dim=16, **SWEEP_KW)
    )

"""Shared fixtures: desk-scale trained controllers for the acceptance gate.

Training at (400, 100) takes minutes per controller, so checkpoints are
cached on disk under tests/.acceptance_cache keyed by the exact manifest and
trainer configuration; any change to either retrains from scratch, and so
does a cached checkpoint whose header no longer matches what training
writes.  Delete the directory to force a full retrain.
"""

import hashlib
import json
import os
import time

import pytest

from gecsr import hypernets, training
from gecsr.model import DatasetManifest
from gecsr.training import TrainerConfig

CACHE_DIR = os.path.join(os.path.dirname(__file__), ".acceptance_cache")

# Matched scenario of the convergence study: Gaussian transforms at 20 dB.
TRAIN_MATCHED = DatasetManifest(seed=8101, count=128, m=400, n=100,
                                matrix_class=("gaussian",),
                                snr_db_range=(20.0, 20.0), rho_range=(0.5, 0.5))

# Mixed-scenario training set: both matrix classes, SNR 15..25 dB.
TRAIN_HYPER = DatasetManifest(seed=8102, count=144, m=400, n=100,
                              matrix_class=("gaussian", "geometric"),
                              gammas=(1.0, 0.97),
                              snr_db_range=(15.0, 25.0), rho_range=(0.3, 0.8))

TEST_MATCHED = DatasetManifest(seed=8201, count=100, m=400, n=100,
                               matrix_class=("gaussian",),
                               snr_db_range=(20.0, 20.0), rho_range=(0.5, 0.5))

TEST_SNR30 = DatasetManifest(seed=8202, count=100, m=400, n=100,
                             matrix_class=("gaussian",),
                             snr_db_range=(30.0, 30.0), rho_range=(0.5, 0.5))

TEST_BINARY = DatasetManifest(seed=8203, count=24, m=400, n=100,
                              matrix_class=("binary",),
                              snr_db_range=(50.0, 50.0), rho_range=(1.0, 1.0))

# Exact (reverse-mode) gradients train every acceptance controller; the
# noisier SPSA default remains exercised by the unit suite and grad_check.
NET_DIRECT_CONFIG = TrainerConfig(
    learning_rate=0.02, batch_size=32, epochs=30, layers=10,
    grad_estimator="adjoint", grad_clip_norm=1.0,
    optimizer="adam", seed=91, tied=True, direct_init_base=0.8)

HYPERGRU_ATTN_CONFIG = TrainerConfig(
    learning_rate=0.02, batch_size=48, epochs=150, layers=10,
    grad_estimator="adjoint", grad_clip_norm=1.0,
    optimizer="adam", seed=92, hidden=32)

HYPERNET_CONFIG = TrainerConfig(
    learning_rate=0.05, batch_size=24, epochs=120, layers=10,
    grad_estimator="adjoint", grad_clip_norm=1.0,
    optimizer="adam", seed=93, hidden=32, heads=4)

# The static controllers restart from two seeds and keep the run with the
# lowest 10-step moving average of the training loss (selection never sees
# test data); desk-scale runs land in noticeably different basins.
HYPERNET_SEEDS = (93, 7)


def cache_key(variant: str, manifest: DatasetManifest, config: TrainerConfig) -> str:
    """The cache file's stem for a (variant, manifest, config)."""
    key = hashlib.sha256(
        f"{variant}|{manifest.hash()}|{json.dumps(config.to_dict(), sort_keys=True)}"
        .encode()).hexdigest()[:16]
    return f"{variant}-{key}"


def train_cached(variant: str, manifest: DatasetManifest,
                 config: TrainerConfig) -> dict:
    """Train once per (variant, manifest, config); reuse across test runs."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = os.path.join(CACHE_DIR, f"{cache_key(variant, manifest, config)}.json")
    # The key does not see the code, so a checkpoint whose header differs
    # from the one training writes now (say, an older form of the variant)
    # is retrained rather than served.
    initial = hypernets.init_variant_params(
        variant, manifest.n, config.layers, hidden=config.hidden,
        heads=config.heads, tied=config.tied, seed=config.seed,
        direct_init_base=config.direct_init_base)
    header = hypernets.checkpoint_payload(variant, initial, manifest.n,
                                          config.layers)
    if os.path.exists(path):
        cached = hypernets.load_checkpoint(path)
        if all(cached.get(field) == value for field, value in header.items()
               if field not in ("arrays", "metadata")):
            return cached
    start = time.monotonic()
    result = training.train(variant, manifest, config)
    result.checkpoint["metadata"]["train_seconds"] = time.monotonic() - start
    best_ma = min(row[2] for row in result.history) if result.history else None
    result.checkpoint["metadata"]["best_moving_avg"] = best_ma
    hypernets.save_checkpoint(path, result.checkpoint)
    return result.checkpoint


def train_best_of_seeds(variant: str, manifest: DatasetManifest,
                        config: TrainerConfig, seeds) -> dict:
    """Restart training per seed; keep the lowest training-loss run."""
    from dataclasses import replace
    best = None
    for seed in seeds:
        ck = train_cached(variant, manifest, replace(config, seed=seed))
        if best is None or ck["metadata"]["best_moving_avg"] < \
                best["metadata"]["best_moving_avg"]:
            best = ck
    return best


@pytest.fixture(scope="session")
def net_direct_ckpt():
    return train_cached("net_direct", TRAIN_MATCHED, NET_DIRECT_CONFIG)


@pytest.fixture(scope="session")
def hypergru_attn_ckpt():
    return train_cached("hypergru_attn", TRAIN_HYPER, HYPERGRU_ATTN_CONFIG)


@pytest.fixture(scope="session")
def hypernet_ckpt():
    return train_best_of_seeds("hypernet", TRAIN_HYPER, HYPERNET_CONFIG,
                               HYPERNET_SEEDS)


@pytest.fixture(scope="session")
def hypernet_attn_ckpt():
    return train_best_of_seeds("hypernet_attn", TRAIN_HYPER, HYPERNET_CONFIG,
                               HYPERNET_SEEDS)

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# single-threaded BLAS before numpy loads: the acceptance runtimes are
# specified single-threaded, and small-matrix gemm is faster this way too
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import pytest

from motionloop.pmp import PmpConfig, TrainConfig, pmp_init, pmp_train
from motionloop.scenes import corpus_items, make_corpus

FIXTURES_DIR = Path(__file__).parent / "fixtures"


class TrainedPrior:
    """The acceptance training run: default config, seed 42, 5000 steps."""

    def __init__(self):
        corpus = corpus_items(make_corpus(512, seed=42))
        model = pmp_init(PmpConfig(), seed=42)
        start = time.perf_counter()
        model, log = pmp_train(model, corpus, TrainConfig(steps=5000), seed=42)
        self.seconds = time.perf_counter() - start
        self.model = model
        self.log = log
        self.corpus = corpus


def pytest_collection_modifyitems(items):
    # `pytest -m "not slow"` skips the reference training run
    for item in items:
        if {"trained_prior", "fixture_runs"} & set(item.fixturenames):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def trained_prior():
    return TrainedPrior()


@pytest.fixture(scope="session")
def held_out_corpus():
    return corpus_items(make_corpus(64, seed=777))


@pytest.fixture(scope="session")
def fixture_runs(trained_prior):
    """The 20 standard pipeline fixture runs, shared across properties."""
    from motionloop.pipeline import PipelineConfig, UserCondition, run_pipeline
    from motionloop.scenes import fixture_scene

    config = PipelineConfig()
    return [run_pipeline(fixture_scene(index), UserCondition(), config,
                         trained_prior.model) for index in range(20)]


@pytest.fixture(scope="session")
def calibration():
    return json.loads((FIXTURES_DIR / "calibration.json").read_text())

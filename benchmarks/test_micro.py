"""Microbenchmarks of the per-batch hot paths, for pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_micro.py

This directory is outside the `testpaths` of pyproject.toml, so the Tier-1
suite does not collect it; `tests/test_benchmark_hooks.py` runs every body
here once with a stand-in `benchmark`, so an API change that breaks these
benchmarks fails Tier-1 instead of `scripts/bench.py`. Shapes follow the two benchmark bundles: the
recovery bundle (K=3, 2-d features, linear model, batch 8) and the ordering
bundle (K=4, 2-d features, MLP-64 tanh, batch 32). `gibbs_sample_batch` and
`update_bound` also run at K=8 with a batch of 16, where their row sums go
through numpy's reduction; no benchmark workload reaches that path.
"""

import numpy as np
import pytest

from lccn_lab.classifier import (
    Architecture,
    LossConfig,
    apply_gradients,
    init_optimizer,
    init_params,
    loss_and_grads,
    one_hot,
    sgd_step,
)
from lccn_lab.noise_model import DirichletPrior, confusion_counts, update_bound
from lccn_lab.sampler import gibbs_sample_batch

SHAPES = {
    "linear-batch8": (Architecture("linear", 2, 3), 8),
    "mlp64-tanh-batch32": (Architecture("mlp", 2, 4, 64, "tanh"), 32),
}


def _batch(arch: Architecture, batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(batch, arch.input_dim))
    labels = rng.integers(0, arch.n_classes, size=batch)
    return features, labels


@pytest.mark.parametrize("shape", SHAPES)
def test_sgd_step(benchmark, shape):
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, batch)
    benchmark(sgd_step, params, opt, features, labels, LossConfig())


@pytest.mark.parametrize("shape", SHAPES)
def test_apply_gradients(benchmark, shape):
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=1e-6)
    features, labels = _batch(arch, batch)
    _, grads = loss_and_grads(params, features, one_hot(labels, arch.n_classes), LossConfig())
    benchmark(apply_gradients, params, opt, grads)


def _chain(k: int, n: int, seed: int = 0):
    """A latent-label chain over n samples with K=k, started from the observed labels."""
    rng = np.random.default_rng(seed)
    observed = rng.integers(0, k, size=n)
    labels = observed.copy()
    counts = confusion_counts(labels, observed, k, k)
    return rng, observed, labels, counts, DirichletPrior.uniform(k)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32), (8, 16)])
def test_gibbs_sample_batch(benchmark, k, batch):
    rng, observed, labels, counts, prior = _chain(k, 1000)
    idx = np.arange(batch)
    probs = rng.dirichlet(np.ones(k), size=batch)
    benchmark(gibbs_sample_batch, probs, observed[idx], counts, prior, labels, idx, rng)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32), (8, 16)])
def test_update_bound(benchmark, k, batch):
    rng, observed, labels, counts, prior = _chain(k, 1000)
    idx = np.arange(batch)
    before = counts.copy()
    probs = rng.dirichlet(np.ones(k), size=batch)
    gibbs_sample_batch(probs, observed[idx], counts, prior, labels, idx, rng)
    benchmark(update_bound, before, counts, prior)

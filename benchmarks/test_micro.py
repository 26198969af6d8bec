"""Microbenchmarks of the per-batch hot paths, for pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_micro.py

This directory is outside the `testpaths` of pyproject.toml, so the Tier-1
suite does not collect it; `tests/test_benchmark_hooks.py` runs every body
here once with a stand-in `benchmark`, so an API change that breaks these
benchmarks fails Tier-1 instead of `scripts/bench.py`. Shapes follow the two benchmark bundles: the
recovery bundle (K=3, 2-d features, linear model, batch 8) and the ordering
bundle (K=4, 2-d features, MLP-64 tanh, batch 32). The classifier benchmarks
time the hard-label step (also given a forward pass, as the latent trainers
call it), the soft-target and composed-channel steps, a forward pass,
and the momentum update `apply_gradients` that ends each step. `gibbs_sample_batch` and
`update_bound` draw Dirichlet(1) probabilities, so nearly every label moves;
they also run at K=8 with a batch of 16, where their row sums take numpy's
pairwise order, which no benchmark workload reaches. Their `_settled`
variants are the workloads' regime instead: a classifier sure of the current
labels, so that a few percent of draws move, most batches keep every label
(and write nothing back) and a moved batch touches few rows. The sampler's
`_chain` variant walks such a chain batch after batch through one
`GibbsChain`, as the latent trainers do: each pass over the samples is an
epoch, planned once by the batch that starts it, and most draws find their
channel cached by an earlier batch. `test_chain_moves` steps Dirichlet(0.7)
batches instead, whose draws mostly move, so that each move refreshes the
kept channels; `test_chain_certify` gives `test_update_bound_settled`'s
certificate as the chain computes it.
"""

import itertools

import numpy as np
import pytest

from lccn_lab.classifier import (
    Architecture,
    _forward,
    apply_gradients,
    forward_proba,
    init_optimizer,
    init_params,
    loss_and_grads,
    one_hot,
    sgd_step,
    sgd_step_soft,
)
from lccn_lab.noise_model import DirichletPrior, confusion_counts, update_bound
from lccn_lab.sampler import GibbsChain, gibbs_sample_batch
from lccn_lab.trainers import _composed_step, _Run

CLIP = 1e-20  # TrainConfig's default
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
    benchmark(sgd_step, params, opt, features, labels, CLIP)


@pytest.mark.parametrize("shape", SHAPES)
def test_sgd_step_reused_forward(benchmark, shape):
    """The hard-label step of the latent trainers, given the forward pass they already made."""
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, batch)
    forward = _forward(params, features)
    benchmark(sgd_step, params, opt, features, labels, CLIP, forward=forward)


@pytest.mark.parametrize("shape", SHAPES)
def test_sgd_step_soft(benchmark, shape):
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=0.01)
    features, _ = _batch(arch, batch)
    weights = np.random.default_rng(1).dirichlet(np.ones(arch.n_classes), size=batch)
    benchmark(sgd_step_soft, params, opt, features, weights, CLIP)


@pytest.mark.parametrize("shape", SHAPES)
def test_composed_step(benchmark, shape):
    """The forward_fixed / s_adaptation step through a fixed channel."""
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    features, labels = _batch(arch, batch)
    run = _Run(params, init_optimizer(params, 0.01), CLIP, np.random.default_rng(0), 1, 1)
    phi = np.full((arch.n_classes, arch.n_classes), 0.1 / (arch.n_classes - 1))
    np.fill_diagonal(phi, 0.9)
    benchmark(_composed_step, run, features, labels, phi)


@pytest.mark.parametrize("shape", SHAPES)
def test_forward_proba(benchmark, shape):
    arch, batch = SHAPES[shape]
    features, _ = _batch(arch, batch)
    benchmark(forward_proba, init_params(arch, 0), features)


@pytest.mark.parametrize("shape", SHAPES)
def test_apply_gradients(benchmark, shape):
    arch, batch = SHAPES[shape]
    params = init_params(arch, 0)
    # Each call leaves learning_rate * velocity in opt.grad as the next call's
    # gradient, so the velocity scales by momentum + learning_rate per call: a
    # sum of 1 keeps it (and the timing) away from overflow and subnormals.
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9)
    features, labels = _batch(arch, batch)
    loss_and_grads(params, features, one_hot(labels, arch.n_classes), CLIP, opt.grads)
    benchmark(apply_gradients, params, opt)


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


def _settled_chain(k: int, n: int, batch: int, seed: int = 0):
    """A chain in the workloads' regime, and the first `batch` samples' probabilities.

    A fifth of the observed labels are redrawn at random, the latent labels are
    the true ones, and the classifier gives each sample's latent label 0.99: a
    few percent of draws move (3% at K=3 with a batch of 8, 2% at K=4 with 32),
    so most batches keep every label.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    observed = np.where(rng.random(n) < 0.2, rng.integers(0, k, size=n), labels)
    counts = confusion_counts(labels, observed, k, k)
    probs = np.full((batch, k), 0.01 / (k - 1))
    probs[np.arange(batch), labels[:batch]] = 0.99
    return rng, observed, labels, counts, DirichletPrior.uniform(k), probs


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32)])
def test_gibbs_sample_batch_settled(benchmark, k, batch):
    """Batches that mostly keep every label, and so mostly write nothing back."""
    rng, observed, labels, counts, prior, probs = _settled_chain(k, 1000, batch)
    idx = np.arange(batch)
    benchmark(gibbs_sample_batch, probs, observed[idx], counts, prior, labels, idx, rng)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32)])
def test_gibbs_sample_batch_chain(benchmark, k, batch):
    """Consecutive settled batches that walk one `GibbsChain`, as the latent trainers do."""
    n = 1000 // batch * batch
    rng, observed, labels, counts, prior, probs = _settled_chain(k, n, n)
    batches = itertools.cycle(np.split(probs, n // batch))
    chain = GibbsChain(labels, counts, prior)
    positions = np.arange(n)

    def next_batch():
        if chain.cursor == len(chain.draws):
            chain.plan(observed, positions, rng)
        chain.step(next(batches))

    benchmark(next_batch)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32)])
def test_chain_moves(benchmark, k, batch):
    """One planned batch of Dirichlet(0.7) rows after another: most draws move a label."""
    rng, observed, labels, counts, prior = _chain(k, 1000)
    idx = np.arange(batch)
    probs = rng.dirichlet(np.full(k, 0.7), size=batch)
    chain = GibbsChain(labels, counts, prior)

    def moving_batch():
        chain.plan(observed[idx], idx, rng)
        chain.step(probs)

    benchmark(moving_batch)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32)])
def test_update_bound_settled(benchmark, k, batch):
    """The certificate of the first settled batch that moved a label: a few touched rows."""
    rng, observed, labels, counts, prior, probs = _settled_chain(k, 1000, batch)
    idx = np.arange(batch)
    before = counts.copy()
    while np.array_equal(before, counts):
        gibbs_sample_batch(probs, observed[idx], counts, prior, labels, idx, rng)
    benchmark(update_bound, before, counts, prior)


@pytest.mark.parametrize("k,batch", [(3, 8), (4, 32)])
def test_chain_certify(benchmark, k, batch):
    """The same certificate as the chain gives it, from the rows its last step touched."""
    rng, observed, labels, counts, prior, probs = _settled_chain(k, 1000, batch)
    idx = np.arange(batch)
    chain = GibbsChain(labels, counts, prior)
    chain.plan(observed[idx], idx, rng)
    while not chain.step(probs):
        chain.plan(observed[idx], idx, rng)
    benchmark(chain.certify)

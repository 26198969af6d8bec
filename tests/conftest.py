"""Shared fixtures and reference formulas reused across test modules."""

import numpy as np
import pytest

import lccn_lab as L


@pytest.fixture(scope="session")
def blobs3():
    """Well-separated 3-class mixture with symmetric 30% label noise."""
    clean = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=60, separation=5.0, seed=3)
    spec = L.NoiseSpec(kind="symmetric", ratio=0.3, seed=11)
    noisy, report = L.apply_noise(clean, spec)
    test = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=60, separation=5.0, seed=10010)
    return {"clean": clean, "noisy": noisy, "report": report, "test": test, "spec": spec}


@pytest.fixture(scope="session")
def blobs2_tiny():
    """Two classes, 64 samples, for fast end-to-end trainer runs."""
    clean = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=32, separation=5.0, seed=7)
    spec = L.NoiseSpec(kind="symmetric", ratio=0.3, seed=3)
    noisy, report = L.apply_noise(clean, spec)
    test = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=100, separation=5.0, seed=10007)
    return {"clean": clean, "noisy": noisy, "report": report, "test": test, "spec": spec}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def conditional_transition_column(counts, prior, observed):
    """Leave-one-out predictive probability of `observed` under every latent class.

    The sampler's reference formula; `counts` must already exclude the sample
    being resampled.
    """
    return (prior.concentration[observed] + counts[:, observed]) / (
        prior.total + counts.sum(axis=1)
    )

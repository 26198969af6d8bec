"""Microbenchmarks of the per-batch hot paths, one plain function per case.

Time them from the repository root with `scripts/bench.py`, which records
every case in a BENCH file, or pair one case of two revisions in one process:

    python3 scripts/ab.py HEAD~1 --micro "test_chain_certify[4-32]" --pairs 20

`CASES` maps each case's id to a function that takes the `lccn_lab` package
it measures, builds the case's state and returns the zero-argument call that
is timed. Nothing here imports the package, so each side of a pair hands in
its own; `tests/test_benchmark_hooks.py` makes every call once against
`lccn_lab`, so an API change that breaks these benchmarks fails Tier-1
instead of `scripts/bench.py`. The ids keep the form that earlier BENCH
files record, `test_<case>[<parameters>]`, so that BENCH files compare case
by case.

Shapes follow the two benchmark bundles: the
recovery bundle (K=3, 2-d features, linear model, batch 8) and the ordering
bundle (K=4, 2-d features, MLP-64 tanh, batch 32). The classifier benchmarks
time the hard-label step (also given a forward pass, as the latent trainers
call it, and over a whole ordering epoch, whose last batch is shorter), a
latent trainer's batch (the buffered forward pass, then that step), the
soft-target and composed-channel steps, a forward pass,
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
channel cached by an earlier batch. `chain_moves` steps Dirichlet(0.7)
batches instead, whose draws mostly move, so that each move refreshes the
kept channels. Both chain benchmarks also run at K=5 with a batch of 32
(lccn_star's latent classes on the ordering bundle) and at K=8 with 16,
where each draw sums its scores in numpy's pairwise order.
`chain_certify` gives `update_bound_settled`'s certificate as the
chain computes it, for one frozen state: it certifies the same rows again
and again. `chain_step_certify` steps settled batches in turn and
certifies each one that moved a label, as the latent trainers do. Both also
run with five latent rows over four observed labels and a batch of 32,
lccn_star's shape on the ordering bundle.
"""

import functools
import itertools

import numpy as np

CLIP = 1e-20  # TrainConfig's default
# The `classifier.Architecture` arguments and the batch of each classifier shape.
SHAPES = {
    "linear-batch8": (("linear", 2, 3), 8),
    "mlp64-tanh-batch32": (("mlp", 2, 4, 64, "tanh"), 32),
}


def _shape(lab, shape: str):
    arch, batch = SHAPES[shape]
    return lab.classifier.Architecture(*arch), batch


def _batch(arch, batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(batch, arch.input_dim))
    labels = rng.integers(0, arch.n_classes, size=batch)
    return features, labels


def sgd_step(shape, lab):
    c = lab.classifier
    arch, batch = _shape(lab, shape)
    params = c.init_params(arch, 0)
    opt = c.init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, batch)
    return functools.partial(c.sgd_step, params, opt, features, labels, CLIP)


def sgd_step_epoch(shape, lab):
    """An ordering-bundle epoch of 1,000 rows: 31 steps of 32 rows and one of 8.

    Both row counts step through one optimizer, so both of its scratches are timed.
    """
    c = lab.classifier
    arch, batch = _shape(lab, f"{shape}-tanh-batch32")
    params = c.init_params(arch, 0)
    opt = c.init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, 1000)
    batches = [(features[i : i + batch], labels[i : i + batch]) for i in range(0, 1000, batch)]
    step = c.sgd_step

    def epoch():
        for batch_features, batch_labels in batches:
            step(params, opt, batch_features, batch_labels, CLIP)

    return epoch


def sgd_step_reused_forward(shape, lab):
    """The hard-label step of the latent trainers, given the forward pass they already made."""
    c = lab.classifier
    arch, batch = _shape(lab, shape)
    params = c.init_params(arch, 0)
    opt = c.init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, batch)
    forward = c._buffered_forward(params, opt, features, CLIP)
    return functools.partial(c.sgd_step, params, opt, features, labels, CLIP, forward=forward)


def latent_batch(shape, lab):
    """A latent trainer's classifier work on one batch: its forward pass, then the step reusing it.

    Both go through the optimizer's buffers, as in the trainers; the Gibbs
    step that the trainers run between them is left out.
    """
    c = lab.classifier
    arch, batch = _shape(lab, shape)
    params = c.init_params(arch, 0)
    opt = c.init_optimizer(params, learning_rate=0.01)
    features, labels = _batch(arch, batch)
    forward, step = c._buffered_forward, c.sgd_step

    def one_batch():
        step(params, opt, features, labels, CLIP, forward=forward(params, opt, features, CLIP))

    return one_batch


def sgd_step_soft(shape, lab):
    c = lab.classifier
    arch, batch = _shape(lab, shape)
    params = c.init_params(arch, 0)
    opt = c.init_optimizer(params, learning_rate=0.01)
    features, _ = _batch(arch, batch)
    weights = np.random.default_rng(1).dirichlet(np.ones(arch.n_classes), size=batch)
    return functools.partial(c.sgd_step_soft, params, opt, features, weights, CLIP)


def composed_step(shape, lab):
    """The forward_fixed / s_adaptation step through a fixed channel."""
    arch, batch = _shape(lab, shape)
    params = lab.classifier.init_params(arch, 0)
    features, labels = _batch(arch, batch)
    opt = lab.classifier.init_optimizer(params, 0.01)
    run = lab.trainers._Run(params, opt, CLIP, np.random.default_rng(0), 1, 1)
    phi = np.full((arch.n_classes, arch.n_classes), 0.1 / (arch.n_classes - 1))
    np.fill_diagonal(phi, 0.9)
    return functools.partial(lab.trainers._composed_step, run, features, labels, phi)


def forward_proba(shape, lab):
    arch, batch = _shape(lab, shape)
    features, _ = _batch(arch, batch)
    params = lab.classifier.init_params(arch, 0)
    return functools.partial(lab.classifier.forward_proba, params, features)


def apply_gradients(shape, lab):
    c = lab.classifier
    arch, batch = _shape(lab, shape)
    params = c.init_params(arch, 0)
    # Each call leaves learning_rate * velocity in opt.grad as the next call's
    # gradient, so the velocity scales by momentum + learning_rate per call: a
    # sum of 1 keeps it (and the timing) away from overflow and subnormals.
    opt = c.init_optimizer(params, learning_rate=0.1, momentum=0.9)
    features, labels = _batch(arch, batch)
    c.loss_and_grads(params, features, c.one_hot(labels, arch.n_classes), CLIP, opt.grads)
    return functools.partial(c.apply_gradients, params, opt)


def _chain(lab, k: int, n: int, seed: int = 0):
    """A latent-label chain over n samples with K=k, started from the observed labels."""
    rng = np.random.default_rng(seed)
    observed = rng.integers(0, k, size=n)
    labels = observed.copy()
    counts = lab.noise_model.confusion_counts(labels, observed, k, k)
    return rng, observed, labels, counts, lab.noise_model.DirichletPrior.uniform(k)


def gibbs_sample_batch(k, batch, lab):
    rng, observed, labels, counts, prior = _chain(lab, k, 1000)
    idx = np.arange(batch)
    probs = rng.dirichlet(np.ones(k), size=batch)
    return functools.partial(lab.sampler.gibbs_sample_batch, probs, observed[idx], counts, prior,
                             labels, idx, rng)


def update_bound(k, batch, lab):
    rng, observed, labels, counts, prior = _chain(lab, k, 1000)
    idx = np.arange(batch)
    before = counts.copy()
    probs = rng.dirichlet(np.ones(k), size=batch)
    lab.sampler.gibbs_sample_batch(probs, observed[idx], counts, prior, labels, idx, rng)
    return functools.partial(lab.noise_model.update_bound, before, counts, prior)


def _settled_chain(lab, k: int, n: int, batch: int, seed: int = 0, n_observed: int | None = None):
    """A chain in the workloads' regime, and the first `batch` samples' probabilities.

    A fifth of the observed labels are redrawn at random, the latent labels are
    the true ones, and the classifier gives each sample's latent label 0.99: a
    few percent of draws move (3% at K=3 with a batch of 8, 2% at K=4 with 32),
    so most batches keep every label. With fewer observed labels than the k
    latent classes (k by default), a sample of a class past them observes a
    random label, as an outlier does.
    """
    n_observed = k if n_observed is None else n_observed
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    redraw = (rng.random(n) < 0.2) | (labels >= n_observed)
    observed = np.where(redraw, rng.integers(0, n_observed, size=n), labels)
    counts = lab.noise_model.confusion_counts(labels, observed, k, n_observed)
    probs = np.full((batch, k), 0.01 / (k - 1))
    probs[np.arange(batch), labels[:batch]] = 0.99
    prior = lab.noise_model.DirichletPrior.uniform(n_observed)
    return rng, observed, labels, counts, prior, probs


def gibbs_sample_batch_settled(k, batch, lab):
    """Batches that mostly keep every label, and so mostly write nothing back."""
    rng, observed, labels, counts, prior, probs = _settled_chain(lab, k, 1000, batch)
    idx = np.arange(batch)
    return functools.partial(lab.sampler.gibbs_sample_batch, probs, observed[idx], counts, prior,
                             labels, idx, rng)


def gibbs_sample_batch_chain(k, batch, lab):
    """Consecutive settled batches that walk one `GibbsChain`, as the latent trainers do."""
    n = 1000 // batch * batch
    rng, observed, labels, counts, prior, probs = _settled_chain(lab, k, n, n)
    batches = itertools.cycle(np.split(probs, n // batch))
    chain = lab.sampler.GibbsChain(labels, counts, prior)
    positions = np.arange(n)

    def next_batch():
        if chain.cursor == len(chain.draws):
            chain.plan(observed, positions, rng)
        chain.step(next(batches))

    return next_batch


def chain_moves(k, batch, lab):
    """One planned batch of Dirichlet(0.7) rows after another: most draws move a label."""
    rng, observed, labels, counts, prior = _chain(lab, k, 1000)
    idx = np.arange(batch)
    probs = rng.dirichlet(np.full(k, 0.7), size=batch)
    chain = lab.sampler.GibbsChain(labels, counts, prior)

    def moving_batch():
        chain.plan(observed[idx], idx, rng)
        chain.step(probs)

    return moving_batch


def update_bound_settled(k, batch, lab):
    """The certificate of the first settled batch that moved a label: a few touched rows."""
    rng, observed, labels, counts, prior, probs = _settled_chain(lab, k, 1000, batch)
    idx = np.arange(batch)
    before = counts.copy()
    while np.array_equal(before, counts):
        lab.sampler.gibbs_sample_batch(probs, observed[idx], counts, prior, labels, idx, rng)
    return functools.partial(lab.noise_model.update_bound, before, counts, prior)


# The observed labels of a certified chain by its latent row count: five rows are
# lccn_star's on the ordering bundle, whose samples observe four labels.
CERTIFY_OBSERVED = {3: 3, 4: 4, 5: 4}


def chain_certify(k, batch, lab):
    """The same certificate as the chain gives it, from the rows its last step touched."""
    rng, observed, labels, counts, prior, probs = _settled_chain(
        lab, k, 1000, batch, n_observed=CERTIFY_OBSERVED[k]
    )
    idx = np.arange(batch)
    chain = lab.sampler.GibbsChain(labels, counts, prior)
    chain.plan(observed[idx], idx, rng)
    while not chain.step(probs):
        chain.plan(observed[idx], idx, rng)
    return chain.certify


def chain_step_certify(k, batch, lab):
    """One settled batch of a walk through one chain, certified when it moved a label."""
    n = 1000 // batch * batch
    rng, observed, labels, counts, prior, probs = _settled_chain(
        lab, k, n, n, n_observed=CERTIFY_OBSERVED[k]
    )
    batches = itertools.cycle(np.split(probs, n // batch))
    chain = lab.sampler.GibbsChain(labels, counts, prior)
    positions = np.arange(n)

    def next_batch():
        if chain.cursor == len(chain.draws):
            chain.plan(observed, positions, rng)
        if chain.step(next(batches)):
            chain.certify()

    return next_batch


def _cases(case, *points) -> dict:
    """`case` bound to each point, by the id `test_<case>[<the point's values joined by ->]`."""
    points = [point if isinstance(point, tuple) else (point,) for point in points]
    return {f"test_{case.__name__}[{'-'.join(map(str, point))}]": functools.partial(case, *point)
            for point in points}


CHAIN_SHAPES = [(3, 8), (4, 32), (5, 32), (8, 16)]
CERTIFY_SHAPES = [(3, 8), (4, 32), (5, 32)]
CASES = {
    **_cases(sgd_step, *SHAPES),
    **_cases(sgd_step_epoch, "mlp64"),
    **_cases(sgd_step_reused_forward, *SHAPES),
    **_cases(latent_batch, *SHAPES),
    **_cases(sgd_step_soft, *SHAPES),
    **_cases(composed_step, *SHAPES),
    **_cases(forward_proba, *SHAPES),
    **_cases(apply_gradients, *SHAPES),
    **_cases(gibbs_sample_batch, (3, 8), (4, 32), (8, 16)),
    **_cases(update_bound, (3, 8), (4, 32), (8, 16)),
    **_cases(gibbs_sample_batch_settled, (3, 8), (4, 32)),
    **_cases(gibbs_sample_batch_chain, *CHAIN_SHAPES),
    **_cases(chain_moves, *CHAIN_SHAPES),
    **_cases(update_bound_settled, (3, 8), (4, 32)),
    **_cases(chain_certify, *CERTIFY_SHAPES),
    **_cases(chain_step_certify, *CERTIFY_SHAPES),
}

"""A seed's node rows are one node-major block, from set-up to training.

The oracles below are the per-node gathers that set-up made before the block:
``partition_dataset`` and ``node_datasets`` handed out one ``Dataset`` copy
per node, and the probe phase probed each copy. The block must hold those
copies' bytes, one after another, and probing views of it must give their
samples bit for bit.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.data import CifarSource, SyntheticSpec, gen_synthetic, gen_synthetic_nodes
from fedbound.flsim import (
    EmptyTestSplitError,
    ScenarioConfig,
    ShortfallError,
    initial_params,
    node_datasets,
    probe_phase,
    training_phase,
)
from fedbound.model import Dataset, mlp_spec, softmax_spec
from fedbound.probe import collect_probes
from fedbound.rng import derive_seed, derive_seeds, spawn_rng
from test_data import random_batch


def per_node_partition(data, cfg, rng_seed):
    """The oracle partition: the test set and one gathered copy per node."""
    n = len(data.labels)
    rng = spawn_rng("partition", rng_seed)
    order = rng.permutation(n)
    n_test = int(round(cfg.test_fraction * n))
    test_idx = order[:n_test]
    pool = order[n_test:]
    if cfg.missing_classes:
        keep = ~np.isin(data.labels[pool], sorted(cfg.missing_classes))
        pool = pool[keep]
    need = cfg.n_nodes * cfg.samples_per_node
    if len(pool) < need:
        dropped = f" and leaving out classes {sorted(cfg.missing_classes)}"
        raise ShortfallError(
            f"insufficient data: need {need} training samples, have {len(pool)} of {n} "
            f"after holding out {n_test}{dropped if cfg.missing_classes else ''}"
        )
    if n_test == 0:
        raise EmptyTestSplitError(
            f"test_fraction {cfg.test_fraction:g} leaves the test split empty"
        )
    nodes = [
        data.subset(pool[i * cfg.samples_per_node : (i + 1) * cfg.samples_per_node])
        for i in range(cfg.n_nodes)
    ]
    return data.subset(test_idx), nodes


def per_node_datasets(source, cfg):
    """The oracle set-up: the test set and the list of per-node copies."""
    pool = source
    if isinstance(source, SyntheticSpec):
        if source.feature_scale:
            total_train = cfg.n_nodes * cfg.samples_per_node
            frac = cfg.test_fraction
            n_test = max(1, int(round(frac / (1.0 - frac) * total_train)))
            return gen_synthetic_nodes(
                source, cfg.n_nodes, cfg.samples_per_node, n_test, cfg.seed, cfg.missing_classes
            )
        pool = gen_synthetic(source, cfg.seed)
    return per_node_partition(pool, cfg, derive_seed(cfg.seed, "partition"))


def per_node_probe_samples(cfg, nodes):
    """The oracle probe phase's ``(N, n_probes, 2)`` samples, node copy by node copy."""
    w1 = initial_params(cfg)
    affine = {} if cfg.probe_sampler == "init" else {"center": w1, "scale": cfg.perturb_sigma}
    node_seeds = derive_seeds((cfg.seed, "probe"), range(cfg.n_nodes))
    return np.stack([
        collect_probes(cfg.model, local, cfg.n_probes, node_seed, cfg.g_formula, **affine)
        for local, node_seed in zip(nodes, node_seeds)
    ])


def assert_same_rows(got, expected):
    assert got.num_classes == expected.num_classes
    assert got.features.dtype == expected.features.dtype == np.float64
    assert got.features.shape == expected.features.shape
    assert got.features.tobytes() == expected.features.tobytes()
    assert got.labels.dtype == expected.labels.dtype
    assert got.labels.tobytes() == expected.labels.tobytes()


def assert_block_is_the_per_node_copies(source, cfg):
    """Set-up gives the oracle's test set and its node copies as one block, or
    fails with the oracle's error."""
    try:
        expected_test, nodes = per_node_datasets(source, cfg)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            node_datasets(source, cfg)
        return
    test, rows = node_datasets(source, cfg)
    assert_same_rows(test, expected_test)
    assert_same_rows(rows, Dataset.concat(nodes))


def synthetic_spec(**kwargs):
    """Four classes in four dimensions, at a separation that every seed places."""
    return SyntheticSpec(num_classes=4, feature_dim=4, separation=0.4, **kwargs)


def scenario(n_nodes, samples_per_node, num_classes, **kwargs):
    return ScenarioConfig(
        n_nodes=n_nodes, samples_per_node=samples_per_node, rounds=1,
        model=softmax_spec(4, num_classes, l2=0.01), n_probes=3, **kwargs,
    )


@pytest.fixture(scope="module")
def cifar_dir(tmp_path_factory):
    """Two fake CIFAR-10 batch files of 70 and 50 random records."""
    path = tmp_path_factory.mktemp("cifar")
    random_batch(path / "a.bin", 70, seed=3)
    random_batch(path / "b.bin", 50, seed=4)
    return path


@given(
    shape=st.sampled_from([(1, False), (2, False), (1, True), (4, True), (8, True), (32, False)]),
    n_nodes=st.integers(1, 5),
    samples_per_node=st.integers(1, 30),
    missing=st.frozensets(st.integers(0, 9), max_size=3),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_cifar_block_is_the_per_node_gathers(
    cifar_dir, shape, n_nodes, samples_per_node, missing, seed
):
    pool, grayscale = shape
    cfg = scenario(n_nodes, samples_per_node, 10, missing_classes=missing, seed=seed)
    assert_block_is_the_per_node_copies(CifarSource(cifar_dir, pool, grayscale), cfg)


@given(
    n_nodes=st.integers(1, 5),
    samples_per_node=st.integers(1, 40),
    missing=st.sampled_from([frozenset(), frozenset({0}), frozenset({1, 2})]),
    knob=st.sampled_from([None, "feature_scale"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_synthetic_block_is_the_per_node_sets(n_nodes, samples_per_node, missing, knob, seed):
    # Without feature scales the pool is partitioned; with them, each node is generated.
    knobs = {knob: tuple(np.linspace(0.3, 1.0, n_nodes))} if knob else {}
    spec = synthetic_spec(samples_per_class=40, **knobs)
    cfg = scenario(n_nodes, samples_per_node, 4, missing_classes=missing, seed=seed)
    assert_block_is_the_per_node_copies(spec, cfg)


@given(
    n_nodes=st.integers(1, 4),
    knob=st.booleans(),
    sampler=st.sampled_from(["init", "perturb"]),
    g_formula=st.sampled_from(["gradient-norm", "loss-magnitude"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_probing_views_of_the_block_gives_the_per_node_samples(
    n_nodes, knob, sampler, g_formula, seed
):
    knobs = {"feature_scale": tuple(np.linspace(0.4, 1.0, n_nodes))} if knob else {}
    spec = synthetic_spec(samples_per_class=50, **knobs)
    cfg = scenario(n_nodes, 30, 4, probe_sampler=sampler, g_formula=g_formula, seed=seed)
    _, nodes = per_node_datasets(spec, cfg)
    _, rows = node_datasets(spec, cfg)
    probed = probe_phase(cfg, rows)
    expected = per_node_probe_samples(cfg, nodes)
    assert probed.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "model, bound",
    [(softmax_spec(192, 4, l2=0.01), 0.5), (mlp_spec(192, 4, 64, l2=0.01), 1.2)],
    ids=["softmax", "mlp"],
)
def test_training_holds_no_second_copy_of_the_block(model, bound):
    # Training gathers one step's batch at a time, so it makes no copy of
    # the block; one would put either peak above 1x. An MLP holds more than
    # 0.5x because each round's training loss computes the hidden units of
    # the whole block in one call.
    spec = SyntheticSpec(num_classes=4, feature_dim=192, samples_per_class=2800,
                         separation=0.6, noise_sigma=0.2)
    cfg = ScenarioConfig(
        n_nodes=10, samples_per_node=1000, rounds=1, model=model, lr=0.1, batch_size=32, seed=1,
    )
    test, rows = node_datasets(spec, cfg)
    assert rows.features.shape == (10 * 1000, 192)
    w1 = initial_params(cfg)
    tracemalloc.start()
    try:
        training_phase(cfg, w1, test, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * rows.features.nbytes

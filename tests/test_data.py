import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.data import (
    CIFAR_CLASSES,
    CIFAR_RECORD_BYTES,
    CifarFormatError,
    CifarSource,
    SyntheticSpec,
    _cifar_files,
    _parse_cifar_file,
    class_centers,
    gen_synthetic,
    gen_synthetic_nodes,
)
from fedbound.flsim import ScenarioConfig, node_datasets
from fedbound.model import Dataset, init_params, sgd_epoch_traced, softmax_spec
from fedbound.rng import spawn_rng


class TestSynthetic:
    def test_counts_per_class(self):
        spec = SyntheticSpec(num_classes=2, feature_dim=4, samples_per_class=50)
        data = gen_synthetic(spec, seed=0)
        assert len(data) == 100
        assert np.sum(data.labels == 0) == 50
        assert np.sum(data.labels == 1) == 50

    def test_deterministic(self):
        spec = SyntheticSpec(num_classes=3, feature_dim=5, samples_per_class=20)
        a = gen_synthetic(spec, seed=7)
        b = gen_synthetic(spec, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_sigma_collapses_clusters(self):
        spec = SyntheticSpec(
            num_classes=2, feature_dim=3, samples_per_class=40, noise_sigma=1e-6
        )
        data = gen_synthetic(spec, seed=1)
        for c in range(2):
            cluster = data.features[data.labels == c]
            assert cluster.var(axis=0).max() < 1e-6

    def test_centers_respect_separation(self):
        spec = SyntheticSpec(num_classes=4, feature_dim=8, samples_per_class=1, separation=0.8)
        centers = class_centers(spec, seed=3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centers[i] - centers[j]) >= 0.8

    def test_infeasible_separation_rejected(self):
        spec = SyntheticSpec(num_classes=8, feature_dim=2, samples_per_class=1, separation=5.0)
        with pytest.raises(ValueError):
            class_centers(spec, seed=0)

    def test_well_separated_classes_are_learnable(self):
        spec = SyntheticSpec(
            num_classes=3, feature_dim=8, samples_per_class=120,
            separation=0.8, noise_sigma=0.05,
        )
        data = gen_synthetic(spec, seed=2)
        idx = np.arange(len(data))
        train, test = data.subset(idx[idx % 3 != 0]), data.subset(idx[idx % 3 == 0])
        model = softmax_spec(8, 3, l2=0.001)
        params = init_params(model, 0)
        for epoch in range(100):
            order = spawn_rng("sgd", epoch).permutation(len(train))[None]
            params = sgd_epoch_traced(model, params[None], train, 1.0, len(train), order)[0][0]
        weights = params[: 3 * 8].reshape(3, 8)
        bias = params[3 * 8 :]
        predictions = np.argmax(test.features @ weights.T + bias, axis=1)
        assert np.mean(predictions == test.labels) >= 0.95


class TestSyntheticNodes:
    def spec(self, **kwargs):
        defaults = dict(num_classes=4, feature_dim=6, samples_per_class=10)
        defaults.update(kwargs)
        return SyntheticSpec(**defaults)

    def test_shapes_and_counts(self):
        test, nodes = gen_synthetic_nodes(self.spec(), 3, 40, n_test=24, seed=0)
        assert len(test) == 24
        assert len(nodes) == 3
        assert all(len(node) == 40 for node in nodes)

    def test_test_set_is_balanced_over_all_classes(self):
        test, _ = gen_synthetic_nodes(self.spec(), 2, 10, n_test=40, seed=1)
        counts = np.bincount(test.labels, minlength=4)
        assert np.all(counts == 10)

    def test_missing_classes_excluded_from_nodes_only(self):
        test, nodes = gen_synthetic_nodes(
            self.spec(), 4, 50, n_test=40, seed=2, missing_classes=frozenset({3})
        )
        for node in nodes:
            assert not np.any(node.labels == 3)
        assert np.any(test.labels == 3)

    def test_label_skew_concentrates_preferred_class(self):
        spec = self.spec(label_skew=(0.9, 0.0))
        _, nodes = gen_synthetic_nodes(spec, 2, 100, n_test=8, seed=3)
        skew_counts = np.bincount(nodes[0].labels, minlength=4)
        assert skew_counts[0] >= 90  # node 0 prefers class 0
        flat_counts = np.bincount(nodes[1].labels, minlength=4)
        assert flat_counts.max() < 60

    def test_noise_mult_scales_spread(self):
        spec = self.spec(noise_mult=(0.2, 3.0), noise_sigma=0.05)
        _, nodes = gen_synthetic_nodes(spec, 2, 200, n_test=8, seed=4)

        def mean_cluster_std(node):
            stds = []
            for c in np.unique(node.labels):
                cluster = node.features[node.labels == c]
                if len(cluster) > 5:
                    stds.append(cluster.std(axis=0).mean())
            return np.mean(stds)

        assert mean_cluster_std(nodes[1]) > 2.0 * mean_cluster_std(nodes[0])

    def test_feature_scale_shrinks_toward_origin(self):
        spec = self.spec(feature_scale=(1.0, 0.4), noise_sigma=0.01)
        _, nodes = gen_synthetic_nodes(spec, 2, 150, n_test=8, seed=6)
        full_norm = np.linalg.norm(nodes[0].features, axis=1).mean()
        shrunk_norm = np.linalg.norm(nodes[1].features, axis=1).mean()
        assert shrunk_norm == pytest.approx(0.4 * full_norm, rel=0.05)

    def test_feature_scale_above_one_rejected(self):
        with pytest.raises(ValueError):
            self.spec(feature_scale=(0.5, 1.5))

    def test_knob_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_nodes(self.spec(label_skew=(0.5,)), 2, 10, n_test=4, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_nodes(self.spec(feature_scale=(0.5,)), 2, 10, n_test=4, seed=0)

    def test_deterministic(self):
        spec = self.spec(noise_mult=(1.0, 2.0))
        a_test, a_nodes = gen_synthetic_nodes(spec, 2, 30, n_test=12, seed=5)
        b_test, b_nodes = gen_synthetic_nodes(spec, 2, 30, n_test=12, seed=5)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        for a, b in zip(a_nodes, b_nodes):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)


@np.errstate(over="ignore")
def whole_expression_features(
    centers: np.ndarray, labels: np.ndarray, sigma: float, rng: np.random.Generator, scale=1.0
) -> np.ndarray:
    """The oracle for ``_cluster_features``: the features as one expression of
    whole-array temporaries."""
    noise = sigma * rng.standard_normal((labels.size, centers.shape[1]))
    return np.clip(scale * (centers[labels] + noise), 0.0, 1.0)


class TestClusterFeatures:
    @given(
        sigma=st.sampled_from([1e-6, 0.12, 0.5, 1e308]),
        knob=st.sampled_from([None, "feature_scale", "noise_mult"]),
        n_nodes=st.integers(1, 4),
        samples=st.integers(1, 30),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_generators_give_the_whole_expression_bytes(self, sigma, knob, n_nodes, samples, seed):
        # Noise of sigma 1e308 overflows to infinities, which clip to 0 and 1.
        knobs = {knob: tuple(np.linspace(0.3, 1.0, n_nodes))} if knob else {}
        spec = SyntheticSpec(num_classes=3, feature_dim=5, samples_per_class=samples,
                             separation=0.4, noise_sigma=sigma, **knobs)

        def generate():
            pool = gen_synthetic(spec, seed)
            test, nodes = gen_synthetic_nodes(spec, n_nodes, samples, 7, seed)
            return [rows.features.tobytes() for rows in (pool, test, *nodes)]

        got = generate()
        with patch("fedbound.data._cluster_features", whole_expression_features):
            assert got == generate()

    def test_pool_holds_about_two_copies_of_its_features(self):
        # The features, and one row of ``centers`` per sample while they are
        # built, then the shuffled copy: about 2x the features.
        spec = SyntheticSpec(num_classes=4, feature_dim=192, samples_per_class=2800,
                             separation=0.6, noise_sigma=0.2)
        tracemalloc.start()
        try:
            pool = gen_synthetic(spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.features.shape == (11200, 192)
        assert peak < 2.5 * pool.features.nbytes


def make_record(label, fill=0):
    return bytes([label]) + bytes([fill]) * 3072


def random_batch(path, n, seed=0):
    """``n`` records of random labels and pixel bytes at ``path``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, (n, 1), dtype=np.uint8)
    path.write_bytes(np.hstack([labels, rng.integers(0, 256, (n, 3072), dtype=np.uint8)]).tobytes())


def every_row(source):
    """Every record of ``source``, gathered in file order."""
    return source.subset(np.arange(len(source.labels)))


def whole_pool(source):
    """The oracle for :meth:`CifarSource.subset`: every record converted to
    float64 at once, scaled, then averaged over channels, then pooled."""
    pool = source.pool
    all_pixels = []
    all_labels = []
    for f in _cifar_files(source):
        pixels, labels = _parse_cifar_file(f)
        all_pixels.append(pixels)
        all_labels.append(labels)
    pixels = np.concatenate(all_pixels).astype(np.float64) / 255.0
    labels = np.concatenate(all_labels)

    if source.grayscale:
        pixels = pixels.mean(axis=1, keepdims=True)
    if pool > 1:
        n, c, side, _ = pixels.shape
        small = side // pool
        pixels = pixels.reshape(n, c, small, pool, small, pool).mean(axis=(3, 5))
    return Dataset(pixels.reshape(pixels.shape[0], -1), labels, CIFAR_CLASSES)


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    """Two files of 23 and 14 random records."""
    path = tmp_path_factory.mktemp("cifar")
    random_batch(path / "a.bin", 23, seed=1)
    random_batch(path / "b.bin", 14, seed=2)
    return path


class TestCifarLoader:
    def test_ten_records(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"".join(make_record(i % 10) for i in range(10)))
        assert path.stat().st_size == 30730
        data = every_row(CifarSource(path))
        assert len(data) == 10
        assert data.feature_dim == 3072

    def test_truncated_file_names_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_record(1) + b"\x00" * 3072)  # 3072-byte tail
        with pytest.raises(CifarFormatError) as excinfo:
            every_row(CifarSource(path))
        assert excinfo.value.byte_offset == CIFAR_RECORD_BYTES
        assert str(CIFAR_RECORD_BYTES) in str(excinfo.value)

    def test_all_zero_record(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(make_record(0))
        data = every_row(CifarSource(path))
        assert data.labels[0] == 0
        assert np.all(data.features[0] == 0.0)

    def test_bad_label_names_offset(self, tmp_path):
        path = tmp_path / "label.bin"
        path.write_bytes(make_record(3) + make_record(11))
        with pytest.raises(CifarFormatError) as excinfo:
            every_row(CifarSource(path))
        assert excinfo.value.byte_offset == CIFAR_RECORD_BYTES
        assert (excinfo.value.path, excinfo.value.reason) == (path, "label byte 11 exceeds 9")

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        path = tmp_path / "max.bin"
        path.write_bytes(make_record(9, fill=255))
        data = every_row(CifarSource(path))
        assert np.all(data.features[0] == 1.0)

    def test_labels_roundtrip(self, tmp_path):
        labels = [3, 1, 4, 1, 5, 9, 2, 6]
        path = tmp_path / "labels.bin"
        path.write_bytes(b"".join(make_record(l) for l in labels))
        data = every_row(CifarSource(path))
        assert list(data.labels) == labels

    def test_directory_of_batches(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(make_record(0))
        (tmp_path / "b.bin").write_bytes(make_record(1))
        data = every_row(CifarSource(tmp_path))
        assert len(data) == 2

    def test_records_load_once_per_source(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(make_record(3))
        source = CifarSource(path)
        assert source.records is source.records
        assert list(source.labels) == [3]
        # A new source reads the file as it now is.
        path.write_bytes(make_record(7))
        assert list(source.labels) == [3]
        assert list(CifarSource(path).labels) == [7]

    def test_grayscale_and_pooling_shrink_features(self, tmp_path):
        path = tmp_path / "small.bin"
        path.write_bytes(make_record(2, fill=128))
        assert every_row(CifarSource(path, pool=4)).feature_dim == 3 * 8 * 8
        assert every_row(CifarSource(path, grayscale=True)).feature_dim == 1024
        assert every_row(CifarSource(path, pool=8, grayscale=True)).feature_dim == 16

    @given(
        pool=st.sampled_from([1, 2, 4, 8, 16, 32]),
        grayscale=st.booleans(),
        indices=st.lists(st.integers(0, 36), max_size=80),
    )
    @settings(max_examples=240, deadline=None)
    def test_gather_is_the_whole_pool_conversion_at_the_rows(
        self, batch_dir, pool, grayscale, indices
    ):
        source = CifarSource(batch_dir, pool, grayscale)
        indices = np.array(indices, dtype=np.int64)
        rows, expected = source.subset(indices), whole_pool(source)
        assert rows.features.shape == (len(indices), source.feature_dim)
        assert rows.features.tobytes() == expected.features[indices].tobytes()
        assert rows.labels.dtype == expected.labels.dtype
        assert rows.labels.tobytes() == expected.labels[indices].tobytes()

    def test_node_datasets_convert_only_the_gathered_rows(self, tmp_path):
        path = tmp_path / "batch.bin"
        random_batch(path, 2000)
        cfg = ScenarioConfig(
            n_nodes=2, samples_per_node=50, rounds=1, model=softmax_spec(3072, 10),
            lr=0.1, batch_size=10, test_fraction=0.05, n_probes=2, seed=1,
        )
        tracemalloc.start()
        try:
            test, rows = node_datasets(CifarSource(path), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(test) + len(rows) == 200
        # The file's bytes, held twice while the batches are joined, then 200
        # float64 rows (4.9 MB); the whole pool as float64 would be 49 MB.
        assert peak < 3 * path.stat().st_size

    def test_bad_pool_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(make_record(0))
        with pytest.raises(ValueError, match="pool 5 must divide 32"):
            CifarSource(path, pool=5)

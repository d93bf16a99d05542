"""Dataset sources: a synthetic Gaussian-cluster generator and CIFAR-10
binary batches.

Synthetic data is the default experiment substrate. Per-node heterogeneity
knobs (label skew, noise multipliers) give node usefulness a controllable
cause, which the correlation analysis needs; CIFAR-10 is an optional
fidelity mode for larger runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import Dataset
from .rng import spawn_rng

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes
CIFAR_CLASSES = 10
CIFAR_SIDE = 32
_CIFAR_BLOCK_ROWS = 1024  # rows that subset converts to float64 at a time


class CifarFormatError(ValueError):
    """Malformed CIFAR-10 binary input; carries the offending byte offset."""

    def __init__(self, path, byte_offset: int, reason: str):
        super().__init__(f"{path}: {reason} (byte offset {byte_offset})")
        self.path = path
        self.byte_offset = byte_offset
        self.reason = reason


class ClassCentersError(ValueError):
    """No draw placed a spec's class centers at its separation."""


@dataclass(frozen=True)
class CifarSource:
    """CIFAR-10 binary batches at ``path``: one .bin file or a directory of
    them, of 3073-byte records (a label byte, then the R, G and B planes).

    :attr:`records` reads the batches on first use and keeps their bytes, so
    one command reads its batches once and holds about the files' size (184
    MB for all 60,000 records). Only the rows :meth:`subset` gathers become
    float64 features.
    """

    path: Path
    pool: int = 1
    grayscale: bool = False
    num_classes = CIFAR_CLASSES  # a class attribute, not a field

    def __post_init__(self):
        if self.pool < 1 or CIFAR_SIDE % self.pool != 0:
            raise ValueError(f"pool {self.pool} must divide {CIFAR_SIDE}")

    @property
    def feature_dim(self) -> int:
        return (1 if self.grayscale else 3) * (CIFAR_SIDE // self.pool) ** 2

    @cached_property
    def records(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(n, 3, 32, 32)`` uint8 pixels and ``(n,)`` int64 labels of
        every batch, file after file. They are sized from the files' sizes
        and filled one file at a time, so loading holds one file's bytes
        beyond them."""
        files = _cifar_files(self)
        counts = [path.stat().st_size // CIFAR_RECORD_BYTES for path in files]
        pixels = np.empty((sum(counts), 3, CIFAR_SIDE, CIFAR_SIDE), np.uint8)
        labels = np.empty(sum(counts), np.int64)
        start = 0
        for path, count in zip(files, counts):
            file_pixels, file_labels = _parse_cifar_file(path)
            if len(file_labels) != count:
                raise OSError(f"{path}: size changed while it was read")
            pixels[start : start + count], labels[start : start + count] = file_pixels, file_labels
            start += count
            del file_pixels  # the file's bytes go before the next file is read
        return pixels, labels

    @property
    def labels(self) -> np.ndarray:
        return self.records[1]

    def subset(self, indices: np.ndarray) -> Dataset:
        """The records at an integer index array as a dataset: pixels scaled
        to [0, 1], then averaged over the channels under ``grayscale``, then
        average-pooled over ``pool`` x ``pool`` blocks. Rows are converted
        a block at a time, so the float64 pixels of one block only are held
        beside the features."""
        features = np.empty((len(indices), self.feature_dim))
        for start in range(0, len(indices), _CIFAR_BLOCK_ROWS):
            rows = indices[start : start + _CIFAR_BLOCK_ROWS]
            pixels = self.records[0][rows].astype(np.float64)
            pixels /= 255.0
            if self.grayscale:
                pixels = pixels.mean(axis=1, keepdims=True)
            if self.pool > 1:
                n, c, side, _ = pixels.shape
                small = side // self.pool
                pixels = pixels.reshape(n, c, small, self.pool, small, self.pool).mean(axis=(3, 5))
            features[start : start + len(rows)] = pixels.reshape(len(rows), self.feature_dim)
        return Dataset(features, self.labels[indices], CIFAR_CLASSES)


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian class clusters inside [0, 1]^d.

    ``label_skew``, ``noise_mult``, and ``feature_scale`` are optional
    per-node knobs (empty tuples mean homogeneous nodes): a skew fraction
    routes that share of a node's samples to its preferred class, a noise
    multiplier scales the node's feature noise, and a feature scale in
    (0, 1] shrinks the node's whole feature vectors toward the origin.
    Scaling is the knob that moves a node's local curvature and gradient
    magnitudes together with its training signal, so it is the default
    driver of usefulness spread in the correlation experiments.
    """

    num_classes: int
    feature_dim: int
    samples_per_class: int
    separation: float = 0.7
    noise_sigma: float = 0.12
    label_skew: tuple[float, ...] = ()
    noise_mult: tuple[float, ...] = ()
    feature_scale: tuple[float, ...] = ()

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if not 0.0 < self.separation < np.inf:
            raise ValueError("separation must be finite and > 0")
        if not 0.0 < self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and > 0")
        if any(not 0.0 <= s <= 1.0 for s in self.label_skew):
            raise ValueError("label_skew fractions must lie in [0, 1]")
        if not all(0.0 < m < np.inf for m in self.noise_mult):
            raise ValueError("noise_mult entries must be finite and > 0")
        if any(not 0.0 < s <= 1.0 for s in self.feature_scale):
            raise ValueError("feature_scale entries must lie in (0, 1]")

    @property
    def has_node_knobs(self) -> bool:
        """True when any per-node knob is set, so nodes are generated one by one."""
        return bool(self.label_skew or self.noise_mult or self.feature_scale)


def class_centers(spec: SyntheticSpec, seed: int) -> np.ndarray:
    """Cluster centers at pairwise distance >= separation, deterministic in seed."""
    rng = spawn_rng("centers", seed)
    for _ in range(1000):
        centers = rng.uniform(0.15, 0.85, (spec.num_classes, spec.feature_dim))
        deltas = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((deltas ** 2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= spec.separation:
            return centers
    raise ClassCentersError(
        f"cannot place {spec.num_classes} centers at separation {spec.separation} "
        f"in {spec.feature_dim} dimensions"
    )


@np.errstate(over="ignore")
def _cluster_features(
    centers: np.ndarray, labels: np.ndarray, sigma: float, rng: np.random.Generator, scale=1.0
) -> np.ndarray:
    """``scale * (center + noise)`` per label, clipped to [0, 1]; noise that
    overflows to an infinity is clipped like any other value outside [0, 1].
    The features are built in the array the normals are drawn into, so the
    only other array of their size is the rows of ``centers``."""
    features = rng.standard_normal((labels.size, centers.shape[1]))
    features *= sigma
    features += centers[labels]
    features *= scale
    return np.clip(features, 0.0, 1.0, out=features)


def gen_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Balanced global dataset: samples_per_class draws around each center."""
    centers = class_centers(spec, seed)
    rng = spawn_rng("synthetic", seed)
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    features = _cluster_features(centers, labels, spec.noise_sigma, rng)
    order = rng.permutation(labels.size)
    return Dataset(features[order], labels[order], spec.num_classes)


def gen_synthetic_nodes(
    spec: SyntheticSpec,
    n_nodes: int,
    samples_per_node: int,
    n_test: int,
    seed: int,
    missing_classes: frozenset[int] = frozenset(),
) -> tuple[Dataset, list[Dataset]]:
    """Per-node datasets with the spec's heterogeneity knobs applied.

    The test set is balanced over all classes at base noise and is never
    filtered; training draws exclude ``missing_classes`` entirely. Node i
    prefers class i (mod allowed classes) for its skewed share.
    """
    for knob_name in ("label_skew", "noise_mult", "feature_scale"):
        knob = getattr(spec, knob_name)
        if knob and len(knob) != n_nodes:
            raise ValueError(f"{knob_name} needs {n_nodes} entries, got {len(knob)}")
    if any(c < 0 or c >= spec.num_classes for c in missing_classes):
        raise ValueError("missing class index outside [0, num_classes)")
    allowed = sorted(set(range(spec.num_classes)) - set(missing_classes))
    if not allowed:
        raise ValueError("all classes are missing")

    centers = class_centers(spec, seed)
    test_rng = spawn_rng("synthetic-test", seed)
    test_labels = np.arange(n_test) % spec.num_classes
    test = Dataset(
        _cluster_features(centers, test_labels, spec.noise_sigma, test_rng),
        test_labels,
        spec.num_classes,
    )

    nodes = []
    for i in range(n_nodes):
        rng = spawn_rng("synthetic-node", seed, i)
        skew = spec.label_skew[i] if spec.label_skew else 0.0
        mult = spec.noise_mult[i] if spec.noise_mult else 1.0
        scale = spec.feature_scale[i] if spec.feature_scale else 1.0
        n_skewed = int(round(skew * samples_per_node))
        preferred = allowed[i % len(allowed)]
        labels = np.concatenate(
            [
                np.full(n_skewed, preferred, dtype=np.int64),
                rng.choice(allowed, size=samples_per_node - n_skewed),
            ]
        )
        rng.shuffle(labels)
        features = _cluster_features(centers, labels, spec.noise_sigma * mult, rng, scale)
        nodes.append(Dataset(features, labels, spec.num_classes))
    return test, nodes


def _cifar_files(source: CifarSource) -> list[Path]:
    """The batch files of ``source``: its path, or the ``*.bin`` files of a directory."""
    path = Path(source.path)
    if not path.is_dir():
        return [path]
    files = sorted(path.glob("*.bin"))
    if not files:
        raise FileNotFoundError(f"no .bin files under {path}")
    return files


def _parse_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 3, 32, 32)`` pixel bytes and ``(n,)`` labels of one batch file;
    a size that is not a positive multiple of :data:`CIFAR_RECORD_BYTES` or a
    label byte above 9 raises :class:`CifarFormatError`."""
    raw = path.read_bytes()
    size = len(raw)
    tail = size % CIFAR_RECORD_BYTES
    if tail or not size:
        raise CifarFormatError(
            path, size - tail, f"file size {size} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise CifarFormatError(
            path, int(bad[0]) * CIFAR_RECORD_BYTES, f"label byte {labels[bad[0]]} exceeds 9"
        )
    pixels = records[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE)
    return pixels, labels

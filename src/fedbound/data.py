"""Dataset sources: a synthetic Gaussian-cluster generator and a CIFAR-10
binary-format loader.

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
    """CIFAR-10 binary batches at ``path``, as :func:`load_cifar10` reads them.

    :attr:`records` loads them on first use and keeps them, so one command
    reads its batches once.
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
    def records(self) -> Dataset:
        """Every record of the batches, as :func:`load_cifar10` returns them."""
        return load_cifar10(self)


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
    overflows to an infinity is clipped like any other value outside [0, 1]."""
    noise = sigma * rng.standard_normal((labels.size, centers.shape[1]))
    return np.clip(scale * (centers[labels] + noise), 0.0, 1.0)


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


def load_cifar10(source: CifarSource) -> Dataset:
    """Load CIFAR-10 binary batches (3073-byte records: label, then R/G/B planes).

    ``source.path`` may be one .bin file or a directory of them. Pixels are
    scaled to [0, 1]; optional average pooling by ``source.pool`` and
    channel-mean grayscaling shrink the feature vector for desk-scale runs.
    """
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

"""Differentiable classifiers, their loss, exact gradients, and plain SGD.

Parameters live in a single flat float64 vector; all operations are pure
functions of their inputs, with randomness passed in as explicit seeds or
row orders.

Three model kinds are supported:

* ``softmax``    -- multinomial logistic regression (convex; strongly convex
                    once an l2 penalty is added),
* ``mlp``        -- one tanh hidden layer followed by a softmax readout,
* ``quadratic``  -- a diagnostic objective ``0.5 * w^T diag(h) w`` whose
                    curvature is known exactly; used by tests and selftests
                    to validate the probing machinery against closed forms.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .rng import spawn_rng

# Per-sample probability floor applied before the log in cross-entropy.
# Random probe points can produce extreme logits; the floor caps a sample's
# loss at -log(PROB_FLOOR) and zeroes its gradient beyond that point.
PROB_FLOOR = 1e-12
_LOG_CAP = -math.log(PROB_FLOOR)

ParamVector = np.ndarray

MODEL_KINDS = ("softmax", "mlp", "quadratic")


@dataclass(frozen=True)
class Dataset:
    """Labeled classification samples stored as dense arrays.

    ``features`` is (n, feature_dim) float64 with entries in [0, 1];
    ``labels`` is (n,) integer with values in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be 1-D with one entry per sample")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if feats.size and (feats.min() < 0.0 or feats.max() > 1.0):
            raise ValueError("features must be normalized to [0, 1]")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @staticmethod
    def _unchecked(features: np.ndarray, labels: np.ndarray, num_classes: int) -> "Dataset":
        """A dataset of rows already validated, built without ``__post_init__``."""
        rows = object.__new__(Dataset)
        object.__setattr__(rows, "features", features)
        object.__setattr__(rows, "labels", labels)
        object.__setattr__(rows, "num_classes", num_classes)
        return rows

    def subset(self, indices: np.ndarray | slice) -> "Dataset":
        """The rows at an integer index array (a copy) or a slice (a view);
        they were validated with ``self``. ``take`` gathers an index array's
        rows with the bytes of ``features[indices]``, several times faster."""
        if isinstance(indices, slice):
            return Dataset._unchecked(self.features[indices], self.labels[indices], self.num_classes)
        features, labels = self.features.take(indices, axis=0), self.labels.take(indices)
        return Dataset._unchecked(features, labels, self.num_classes)

    @staticmethod
    def concat(parts: Iterable["Dataset"]) -> "Dataset":
        """The rows of validated datasets, one block after another."""
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one dataset")
        first = parts[0]
        if any(
            part.num_classes != first.num_classes or part.feature_dim != first.feature_dim
            for part in parts
        ):
            raise ValueError("datasets differ in num_classes or feature_dim")
        return Dataset._unchecked(
            np.concatenate([part.features for part in parts]),
            np.concatenate([part.labels for part in parts]),
            first.num_classes,
        )


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus regularization; fully determines the parameter layout.

    ``quad_diag`` is only meaningful for the quadratic kind, where it holds
    the diagonal of the curvature matrix.
    """

    kind: str
    feature_dim: int
    num_classes: int
    hidden_width: int = 0
    l2_coefficient: float = 0.0
    quad_diag: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.l2_coefficient < math.inf:
            raise ValueError("l2_coefficient must be finite and >= 0")
        if self.kind == "quadratic":
            if not self.quad_diag:
                raise ValueError("quadratic kind needs a nonempty quad_diag")
            if not all(0.0 < h < math.inf for h in self.quad_diag):
                raise ValueError("quad_diag entries must be finite and positive")
        else:
            if self.feature_dim < 1:
                raise ValueError("feature_dim must be >= 1")
            if self.num_classes < 2:
                raise ValueError("num_classes must be >= 2")
            if self.kind == "mlp" and self.hidden_width < 1:
                raise ValueError("hidden_width must be >= 1 for an mlp")
            if self.kind == "softmax":  # no hidden layer, whatever hidden_width says
                object.__setattr__(self, "hidden_width", 0)


def softmax_spec(feature_dim: int, num_classes: int, l2: float = 0.0) -> ModelSpec:
    return ModelSpec("softmax", feature_dim, num_classes, l2_coefficient=l2)


def mlp_spec(feature_dim: int, num_classes: int, hidden_width: int, l2: float = 0.0) -> ModelSpec:
    return ModelSpec("mlp", feature_dim, num_classes, hidden_width, l2_coefficient=l2)


def quadratic_spec(diag, l2: float = 0.0) -> ModelSpec:
    """Diagnostic objective 0.5 * w^T diag(h) w; ignores dataset contents."""
    diag = tuple(float(h) for h in diag)
    return ModelSpec("quadratic", len(diag), 1, l2_coefficient=l2, quad_diag=diag)


def param_dim(spec: ModelSpec) -> int:
    """Exact flat parameter count for the architecture."""
    d, k, h = spec.feature_dim, spec.num_classes, spec.hidden_width
    if spec.kind == "softmax":
        return k * d + k
    if spec.kind == "mlp":
        return h * d + h + k * h + k
    return len(spec.quad_diag)


def init_scales(spec: ModelSpec) -> np.ndarray:
    """Per-entry standard deviation of the initialization distribution.

    Each layer's entries take 1/sqrt(fan_in), which keeps losses at random
    parameter vectors finite.
    """
    d, k, h = spec.feature_dim, spec.num_classes, spec.hidden_width
    if spec.kind == "softmax":
        return np.full(k * d + k, 1.0 / math.sqrt(d))
    if spec.kind == "mlp":
        return np.concatenate(
            [np.full(h * d + h, 1.0 / math.sqrt(d)), np.full(k * h + k, 1.0 / math.sqrt(h))]
        )
    dim = len(spec.quad_diag)
    return np.full(dim, 1.0 / math.sqrt(dim))


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Deterministic fresh parameter vector for the given seed: i.i.d.
    zero-mean normal entries with :func:`init_scales`.

    numpy draws ``rng.normal(0.0, s, n)`` as ``0.0 + s * z`` from the next n
    standard normals, so this is each layer's ``normal`` call, bit for bit.
    """
    return 0.0 + init_scales(spec) * spawn_rng("init", seed).standard_normal(param_dim(spec))


def _check_params(spec: ModelSpec, params: ParamVector, allow_stack: bool = False) -> np.ndarray:
    """A finite parameter vector, or with ``allow_stack`` a ``(P, dim)`` stack of them."""
    params = np.asarray(params, dtype=np.float64)
    dim = param_dim(spec)
    stacked = allow_stack and params.ndim == 2 and params.shape[0] >= 1 and params.shape[1] == dim
    if params.shape != (dim,) and not stacked:
        expected = f"({dim},) or (P, {dim})" if allow_stack else f"({dim},)"
        raise ValueError(f"parameter vector has shape {params.shape}, expected {expected}")
    if not np.isfinite(params).all():
        raise ValueError("parameter vector contains non-finite values")
    return params


def _check_data(spec: ModelSpec, data: Dataset, blocks: int = 1) -> None:
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if len(data) % blocks:
        raise ValueError(f"dataset of {len(data)} rows does not split into {blocks} equal blocks")
    if spec.kind != "quadratic":
        if data.feature_dim != spec.feature_dim:
            raise ValueError(
                f"dataset feature_dim {data.feature_dim} != spec feature_dim {spec.feature_dim}"
            )
        if data.num_classes != spec.num_classes:
            raise ValueError(
                f"dataset num_classes {data.num_classes} != spec num_classes {spec.num_classes}"
            )


def _check_inputs(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """``params`` as a ``(P, dim)`` stack (P = 1 for a vector) over P row blocks of ``data``."""
    params = _check_params(spec, params, allow_stack=True)
    stack = params[None] if params.ndim == 1 else params
    _check_data(spec, data, stack.shape[0])
    return stack


def _class_sum(values: np.ndarray) -> np.ndarray:
    """Sum of a ``(P, k, n)`` array over axis 1, in numpy's last-axis order.

    A sum over a contiguous last axis is numpy's pairwise sum: sequential
    below 8 terms; eight running sums combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the leftover
    terms, up to 128; above that, the two halves split at ``k // 2`` rounded
    down to a multiple of 8. Each step here adds whole ``(P, n)`` slices, so
    every entry is rounded as ``np.add.reduce`` over its k classes rounds it.
    """
    k = values.shape[1]
    if k < 8:
        return np.add.reduce(values, axis=1)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _class_sum(values[:, :half]) + _class_sum(values[:, half:])
    stop = k - k % 8
    acc = values[:, :8].copy()
    for start in range(8, stop, 8):
        acc += values[:, start : start + 8]
    total = (acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])
    total += (acc[:, 4] + acc[:, 5]) + (acc[:, 6] + acc[:, 7])
    for c in range(stop, k):
        total += values[:, c]
    return total


# The kernel's class-sized ``(P, n, k)`` intermediates go into reused arrays.
# A probe stack's intermediate is a few hundred KB, and glibc's dynamic mmap
# threshold settles at exactly that size, so a fresh one per call is mmap'd,
# faulted in page by page and unmapped again: about 4,000 minor faults per
# hetero-eight probe phase, against a handful with reused arrays. One
# workspace serves one thread and one shape, the 32 most recently used are
# kept, and the kernel returns no view of them.
@functools.lru_cache(maxsize=32)
def _workspace(thread: int, stack: int, n: int, k: int) -> tuple[np.ndarray, ...]:
    """Thread ``thread``'s C-contiguous ``(stack, n, k)`` and ``(stack, k, n)``
    float64 arrays for the kernel, and the ``(stack, n)`` offsets
    ``p * k * n + i`` of entry ``(p, 0, i)`` in the second."""
    offsets = np.arange(0, stack * k * n, k * n)[:, None] + np.arange(n)
    return np.empty((stack, n, k)), np.empty((stack, k, n)), offsets


def _loss_and_grad_stacked(
    spec: ModelSpec,
    W: np.ndarray,
    feats: np.ndarray,
    labels: np.ndarray,
    want_grad: bool,
    want_loss: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Losses ``(P,)`` and gradients ``(P, dim)`` at each row of a parameter stack.

    The one home of the forward and backward math; either output is None
    when not wanted. Data is either shared by every row (``feats`` (n, d),
    ``labels`` (n,)) or one block per row (``feats`` (P, n, d), ``labels``
    (P, n)). It checks nothing: ``W`` must be finite with ``param_dim(spec)``
    columns and the data nonempty and matching the spec. Row p equals
    :func:`loss` and :func:`gradient` at ``W[p]`` on its data bit for bit.
    That is why the penalty is a row-wise ``vecdot`` (the same sum as
    ``w @ w``; ``einsum`` rounds differently) and the log-probabilities are
    gathered into a fresh contiguous array (a strided mean sums in another
    order).

    The log-softmax runs class-major, on one ``(P, k, n)`` array, so each
    elementwise step is k long passes over the rows rather than P * n short
    passes over the classes; :func:`_class_sum` keeps the class sum in the
    order of a last-axis sum. The logits leave a batched matmul class-major
    (``weights @ feats.T``), bit-equal to the row-major product. The weight
    gradients' matmuls keep their orientation (``err.T @ feats``, ``err @ w2``,
    ``err.T @ hidden``) on a contiguous ``(P, n, k)`` copy of ``err``: turned
    around, BLAS rounds some gradients differently. A bias gradient is the
    sum of its rows in row order, a reduce over the outer axis of an
    ``(n, P, k)`` copy. The workspace's ``(P, k, n)`` array holds the logits,
    then the log-probabilities, then ``err``; its ``(P, n, k)`` array holds
    the ``exp`` temporary, then the ``(n, P, k)`` copy of ``err``, then its
    ``(P, n, k)`` copy.
    """
    l2 = spec.l2_coefficient
    losses = grads = None
    if want_loss:
        penalty = 0.5 * l2 * np.vecdot(W, W)
    if spec.kind == "quadratic":
        curv = np.asarray(spec.quad_diag) * W
        if want_loss:
            losses = 0.5 * np.vecdot(W, curv) + penalty
        if want_grad:
            grads = curv + l2 * W
        return losses, grads

    stack, n = W.shape[0], feats.shape[-2]
    d, k, h = spec.feature_dim, spec.num_classes, spec.hidden_width
    rows_major, logp_all, offsets = _workspace(threading.get_ident(), stack, n, k)
    if spec.kind == "softmax":
        weights = W[:, : k * d].reshape(stack, k, d)
        np.matmul(weights, np.swapaxes(feats, -1, -2), out=logp_all)
        bias = W[:, k * d :]
    else:
        o1, o2, o3 = h * d, h * d + h, h * d + h + k * h
        w1 = W[:, :o1].reshape(stack, h, d)
        b1 = W[:, None, o1:o2]
        w2 = W[:, o2:o3].reshape(stack, k, h)
        hidden = np.tanh(feats @ w1.transpose(0, 2, 1) + b1)
        np.matmul(w2, hidden.transpose(0, 2, 1), out=logp_all)
        bias = W[:, o3:]
    # Class-major logits, shifted by their max and then by the log of their
    # exp-sum in place: ``logp_all[p, c, i]`` is log p(class c | row i).
    logp_all += bias[:, :, None]
    logp_all -= np.maximum.reduce(logp_all, axis=1)[:, None]
    logp_all -= np.log(_class_sum(np.exp(logp_all, out=rows_major.reshape(stack, k, n))))[:, None]
    # One flat index into ``logp_all`` serves shared and per-row labels:
    # entry (p, i) is the offset of row i's true class in stack row p. It
    # only copies values; ``take`` returns a fresh (P, n) array.
    flat = offsets + labels * n
    logp = logp_all.reshape(-1).take(flat)
    if want_loss:
        losses = np.add.reduce(np.minimum(-logp, _LOG_CAP), axis=1) / n + penalty
    if not want_grad:
        return losses, None

    err_cm = np.exp(logp_all, out=logp_all)
    err_cm.reshape(-1)[flat] -= 1.0
    err_cm /= n
    # Samples whose true-class probability is below the floor sit on the
    # capped (flat) branch of the loss and contribute no gradient.
    kept = logp >= -_LOG_CAP
    if not kept.all():
        np.copyto(err_cm, 0.0, where=~kept[:, None, :])
    # A bias gradient sums the rows in order, as a reduce over the rows of a
    # (P, n, k) array does; a reduce over the outer axis of an (n, P, k) copy
    # takes that order and runs P * k wide.
    rows_first = rows_major.reshape(n, stack, k)
    np.copyto(rows_first, err_cm.transpose(2, 0, 1))
    bias_grad = np.add.reduce(rows_first, axis=0)
    # The weight matmuls take ``err`` as a contiguous (P, n, k) array: from
    # the class-major array, or from a view of the (n, P, k) copy, BLAS rounds
    # some gradients differently.
    err = rows_major
    np.copyto(err, err_cm.transpose(0, 2, 1))
    if spec.kind == "softmax":
        parts = [err.transpose(0, 2, 1) @ feats, bias_grad]
    else:
        d_hidden = (err @ w2) * (1.0 - hidden * hidden)
        parts = [
            d_hidden.transpose(0, 2, 1) @ feats,
            np.add.reduce(d_hidden, axis=1),
            err.transpose(0, 2, 1) @ hidden,
            bias_grad,
        ]
    grads = np.concatenate([part.reshape(stack, -1) for part in parts], axis=1)
    grads += l2 * W
    return losses, grads


def _blocks(stack: np.ndarray, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """``data`` as one block of rows per stack row: features (P, n, d), labels (P, n)."""
    blocks = stack.shape[0]
    return (
        data.features.reshape(blocks, -1, data.feature_dim),
        data.labels.reshape(blocks, -1),
    )


def loss(spec: ModelSpec, params: ParamVector, data: Dataset) -> float | np.ndarray:
    """Mean cross-entropy over the dataset plus (l2/2) * ||params||^2.

    The quadratic kind instead evaluates 0.5 * w^T diag(h) w (data ignored).
    For a ``(P, dim)`` stack, ``data`` holds P equal, consecutive row blocks
    and the result is the ``(P,)`` array of each row's loss on its block;
    row p equals the single-vector call on block p bit for bit.
    """
    stack = _check_inputs(spec, params, data)
    losses, _ = _loss_and_grad_stacked(spec, stack, *_blocks(stack, data), False)
    return float(losses[0]) if np.ndim(params) == 1 else losses


def gradient(spec: ModelSpec, params: ParamVector, data: Dataset) -> ParamVector:
    """Exact analytic gradient of :func:`loss`; same shape as ``params``.

    A ``(P, dim)`` stack takes P equal row blocks of ``data``, as in :func:`loss`.
    """
    stack = _check_inputs(spec, params, data)
    _, grads = _loss_and_grad_stacked(spec, stack, *_blocks(stack, data), True, want_loss=False)
    return grads[0] if np.ndim(params) == 1 else grads


def shared_data_loss(spec: ModelSpec, params: ParamVector, data: Dataset) -> np.ndarray:
    """The ``(P,)`` losses of the rows of a ``(P, dim)`` stack, each on all of
    ``data``, in one kernel call; row p equals ``loss(spec, params[p], data)``
    bit for bit."""
    stack = _check_params(spec, params, allow_stack=True)
    if stack.ndim != 2:
        raise ValueError(f"expected a (P, {param_dim(spec)}) stack, got shape {stack.shape}")
    _check_data(spec, data)
    losses, _ = _loss_and_grad_stacked(spec, stack, data.features, data.labels, False)
    return losses


class DivergenceError(ValueError):
    """An SGD epoch left non-finite parameters: ``step`` is the 1-based step that
    did, ``row`` the first stack row it left non-finite (None for a single vector)."""

    def __init__(self, step: int, row: int | None = None):
        where = "" if row is None else f", first in stack row {row}"
        super().__init__(f"SGD left non-finite parameters after {step} steps{where}")
        self.step = step
        self.row = row


def _diverged(stack: np.ndarray, steps: int, single: bool) -> DivergenceError:
    """The error of an epoch whose first ``steps`` steps left ``stack`` non-finite."""
    row = int(np.flatnonzero(~np.isfinite(stack).all(axis=1))[0])
    return DivergenceError(steps, None if single else row)


def sgd_epoch_traced(
    spec: ModelSpec,
    params: ParamVector,
    data: Dataset,
    lr: float,
    batch_size: int,
    order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass of mini-batch SGD over the rows in ``order``, recording each
    batch-gradient norm.

    ``order`` holds row positions in ``[0, len(data))``; a run passes a
    shuffle, ``spawn_rng("sgd", seed).permutation(len(data))``. Returns the
    updated parameters and the ||grad|| of every SGD step. The input is never
    mutated. A ``(P, dim)`` stack trains P models in lockstep: ``data`` holds
    their P equal, consecutive row blocks of n rows, row p of the ``(P, n)``
    ``order`` is block p's order within the block, and each step makes one
    stacked :func:`gradient` call; the norms then come back as a ``(steps, P)``
    array. Row p equals the single-vector call on block p with order row p,
    bit for bit. A step that leaves non-finite parameters raises a
    :class:`DivergenceError` naming it.
    """
    if not 0.0 <= lr < math.inf:
        raise ValueError("lr must be finite and >= 0")
    single = np.ndim(params) == 1
    stack = _check_inputs(spec, params, data)
    blocks = stack.shape[0]
    n = len(data) // blocks
    order = np.asarray(order)
    expected = (n,) if single else (blocks, n)
    if order.shape != expected or order.dtype.kind not in "iu":
        raise ValueError(f"row order is {order.dtype} {order.shape}, expected integers {expected}")
    if order.min() < 0 or order.max() >= n:
        raise ValueError(f"row order holds positions outside [0, {n})")
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must lie in [1, {n}]")
    # The epoch's rows gathered once, step by step: step s takes columns
    # [s * batch_size, (s + 1) * batch_size) of every block's order, block by
    # block, offset to the block, so each step's batch is a contiguous slice.
    rows = order.reshape(blocks, n) + n * np.arange(blocks)[:, None]
    full = n - n % batch_size
    steps = rows[:, :full].reshape(blocks, -1, batch_size).transpose(1, 0, 2)
    epoch = data.subset(np.concatenate((steps.ravel(), rows[:, full:].ravel())))
    starts = range(0, n, batch_size)
    current = stack.copy()
    sq_norms = np.empty((len(starts), blocks))
    hi = 0
    try:
        for step, start in enumerate(starts):
            lo, hi = hi, hi + blocks * min(batch_size, n - start)
            grad = gradient(spec, current, epoch.subset(slice(lo, hi)))
            sq_norms[step] = np.vecdot(grad, grad)
            current = current - lr * grad
    except ValueError:
        # Each step's gradient call checks the stack it starts from, so the
        # first one to fail it is the one the previous ``step`` steps left.
        if np.isfinite(current).all():
            raise
        raise _diverged(current, step, single) from None
    # This checks the stack the last step leaves.
    if not np.isfinite(current).all():
        raise _diverged(current, len(starts), single)
    # sqrt(g @ g) is what np.linalg.norm computes for a 1-D vector.
    norms = np.sqrt(sq_norms)
    return (current[0], norms[:, 0]) if single else (current, norms)


def finite_difference_gradient(
    spec: ModelSpec, params: ParamVector, data: Dataset, step: float = 1e-5
) -> ParamVector:
    """Central finite-difference gradient; the independent check for ``gradient``."""
    params = np.asarray(params, dtype=np.float64)
    out = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + step
        hi = loss(spec, bumped, data)
        bumped[i] = params[i] - step
        lo = loss(spec, bumped, data)
        out[i] = (hi - lo) / (2.0 * step)
    return out

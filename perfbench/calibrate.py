"""A fixed loop timed between seeds, so seed time can be read against host speed.

This host's speed drifts by up to 2x for minutes at a time, through
contention from outside the VM. Python-bound seeds slow down with it, and so
does this loop, so the ratio of their means stays put while raw seconds do
not. The loop is a frozen copy of the arithmetic of softmax minibatch SGD, the
kind of work the small workloads do; it calls no fedbound code, so a change
to fedbound moves only the seed side of the ratio.
"""

from __future__ import annotations

import time

import numpy as np

_N, _D, _K = 150, 8, 4
_X = np.linspace(0.0, 1.0, _N * _D).reshape(_N, _D)
_Y = np.arange(_N) % _K
_W0 = np.linspace(-0.5, 0.5, _K * _D + _K)
_EPOCHS = 60


def _gradient(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    weights, bias = w[: _K * _D].reshape(_K, _D), w[_K * _D :]
    logits = x @ weights.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    err = np.exp(logp)
    err[np.arange(len(y)), y] -= 1.0
    err /= len(y)
    return np.concatenate([(err.T @ x).ravel(), err.sum(axis=0)]) + 0.01 * w


def calibrate() -> float:
    """Seconds taken by 60 passes of batch-32 SGD on a fixed dataset."""
    t0 = time.perf_counter()
    w = _W0.copy()
    for _ in range(_EPOCHS):
        for start in range(0, _N, 32):
            grad = _gradient(w, _X[start : start + 32], _Y[start : start + 32])
            w = w - 0.05 * grad
    return time.perf_counter() - t0

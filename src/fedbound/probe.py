"""Monte-Carlo probing of loss-landscape constants.

Each probe draws a random parameter pair (u, v), evaluates

    m = 2 * (F(u) - F(v) + (v - u)^T grad F(v)) / ||u - v||^2

and a gradient magnitude g at v. Over many probes, the smallest m is the
strong-convexity estimate ``mu``, the largest m the smoothness estimate
``L``, and the largest g the gradient bound ``G``. A federation-wide
estimate takes the worst case of per-node estimates in every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    _check_data,
    _check_stack,
    _loss_and_grad_stacked,
    gradient,
    init_scales,
    param_dim,
)
from .rng import derive_seeds, normal_rows

# Below this squared distance a pair is useless for the m formula: its probe
# fails rather than divide rounding noise through.
DEGENERATE_SQ_DIST = 1e-30

G_FORMULAS = ("gradient-norm", "loss-magnitude")

# Probes evaluated in one stacked kernel call hold about this many floats in
# each (probe, row, max(hidden, classes)) intermediate, a few MB at most.
# The kernel keeps two arrays of its class-sized intermediate's size per
# thread and stack shape (``model._workspace``), for at most 32 of them.
STACK_ELEMENTS = 1 << 18


class DegeneratePairError(ValueError):
    """Raised when u and v (nearly) coincide."""


class ProbeFailure(RuntimeError):
    """A single probe produced an error or a non-finite value; :func:`flsim.probe_phase`
    names the node whose probe it was."""

    def __init__(self, probe_index: int, reason: str, node: int | None = None):
        where = "" if node is None else f"node {node}: "
        super().__init__(f"{where}probe {probe_index} failed: {reason}")
        self.probe_index = probe_index
        self.reason = reason
        self.node = node


@dataclass(frozen=True)
class ConstantsEstimate:
    """Estimated (mu, L, G) triple with the probe count that produced it."""

    mu: float
    L: float
    G: float
    n_probes: int

    def __post_init__(self):
        if self.mu > self.L:
            raise ValueError(f"mu={self.mu} exceeds L={self.L}")
        if self.G < 0.0:
            raise ValueError("G must be nonnegative")
        if self.n_probes < 1:
            raise ValueError("n_probes must be positive")


def _pair_values(spec: ModelSpec, U: np.ndarray, V: np.ndarray, data: Dataset):
    """F(u), F(v) and grad F(v) for stacked pairs; one kernel call per stack."""
    f_u, _ = _loss_and_grad_stacked(spec, U, data.features, data.labels, False)
    f_v, grad_v = _loss_and_grad_stacked(spec, V, data.features, data.labels, True)
    return f_u, f_v, grad_v


def _degenerate_message(sq_dist: float) -> str:
    return f"||u - v||^2 = {sq_dist} is below {DEGENERATE_SQ_DIST}"


def _m_values(U, V, f_u, f_v, grad_v) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances ``||u - v||^2`` and m values of stacked pairs.

    Row p is the 1-D formula at pair p to the bit: ``vecdot`` sums as ``@``
    does. A degenerate row gets whatever the division gives; callers reject it.
    """
    diff = U - V
    sq_dist = np.vecdot(diff, diff)
    return sq_dist, 2.0 * (f_u - f_v + np.vecdot(V - U, grad_v)) / sq_dist


@np.errstate(all="ignore")
def compute_m(spec: ModelSpec, u: ParamVector, v: ParamVector, data: Dataset) -> float:
    """Normalized curvature of the loss between two parameter vectors.

    For a quadratic objective this is exactly the Rayleigh quotient of the
    curvature matrix along u - v, hence bracketed by its extreme eigenvalues.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("u and v must have identical shapes")
    U = _check_stack(spec, u[None])
    _check_data(spec, data)
    V = _check_stack(spec, v[None])
    sq_dist, m = _m_values(U, V, *_pair_values(spec, U, V, data))
    if sq_dist[0] < DEGENERATE_SQ_DIST:
        raise DegeneratePairError(_degenerate_message(float(sq_dist[0])))
    return float(m[0])


def compute_g(spec: ModelSpec, v: ParamVector, data: Dataset) -> float:
    """Euclidean norm of the loss gradient at v."""
    return float(np.linalg.norm(gradient(spec, np.asarray(v)[None], data)[0]))


def probe_stack_size(spec: ModelSpec, data: Dataset) -> int:
    """Probes per stacked evaluation, from the size of one probe's intermediates."""
    return max(1, STACK_ELEMENTS // (len(data) * max(spec.hidden_width, spec.num_classes)))


def _draw_stack(
    spec: ModelSpec, center: float | np.ndarray, scale: np.ndarray, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, dim)`` stacks U and V of the probes with these seeds.

    Row p maps the first and second ``dim`` normals z of one :func:`normal_rows`
    row of ``2 * dim``, drawn from the ``probe-pair`` stream of ``seeds[p]``,
    to u and v as ``center + scale * z``. A degenerate or overflowed row stays
    as drawn, for :func:`_stack_samples` to reject.
    """
    dim = param_dim(spec)
    Z = normal_rows("probe-pair", seeds, 2 * dim)
    return center + scale * Z[:, :dim], center + scale * Z[:, dim:]


def _stack_samples(
    spec: ModelSpec,
    U: np.ndarray,
    V: np.ndarray,
    data: Dataset,
    g_formula: str,
    first: int,
) -> np.ndarray:
    """Evaluate the pairs of probes ``first, first + 1, ...`` as one stack and
    return their ``(P, 2)`` array of ``(m, g)`` rows; the first probe with a
    non-finite vector, a degenerate pair or a non-finite value fails."""
    f_u, f_v, grad_v = _pair_values(spec, U, V, data)
    sq_dist, m = _m_values(U, V, f_u, f_v, grad_v)
    # sqrt(g @ g) is what np.linalg.norm computes for a 1-D vector.
    g = np.sqrt(np.vecdot(grad_v, grad_v)) if g_formula == "gradient-norm" else np.abs(f_v)
    finite = np.isfinite(U).all(axis=1) & np.isfinite(V).all(axis=1)
    degenerate = sq_dist < DEGENERATE_SQ_DIST
    bad = ~finite | degenerate | ~np.isfinite(m) | ~np.isfinite(g)
    if bad.any():
        p = int(bad.argmax())
        if not finite[p]:
            exc = ValueError("parameter vector contains non-finite values")
        elif degenerate[p]:
            exc = DegeneratePairError(_degenerate_message(float(sq_dist[p])))
        else:
            exc = ValueError("probe values must be finite")
        raise ProbeFailure(first + p, str(exc)) from exc
    return np.column_stack((m, g))


@np.errstate(all="ignore")
def collect_probes(
    spec: ModelSpec,
    data: Dataset,
    n_probes: int,
    rng_seed: int,
    g_formula: str = "gradient-norm",
    center: float | ParamVector = 0.0,
    scale: float | np.ndarray | None = None,
) -> np.ndarray:
    """Run the probe loop; row i of the ``(n_probes, 2)`` array it returns is probe i's (m, g).

    Probe i draws u and v as ``center + scale * z`` for standard normals z
    from a seed derived from (rng_seed, i) only, so a longer run extends a
    shorter one sample-for-sample. ``scale=None`` is :func:`init_scales`, so
    the default draws from the initialization distribution. Probes are
    drawn, checked and evaluated :func:`probe_stack_size` at a time, each
    stack's pairs from one :func:`normal_rows` call. A failure names the
    first probe that drew a non-finite vector or a degenerate pair, or gave
    a non-finite value; a vector ``center`` that is no finite parameter
    vector fails as probe 0.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if g_formula not in G_FORMULAS:
        raise ValueError(f"g_formula must be one of {G_FORMULAS}")
    scale = init_scales(spec) if scale is None else np.asarray(scale, dtype=np.float64)
    if scale.shape not in ((), (param_dim(spec),)):
        raise ValueError(f"scale has shape {scale.shape}, expected () or ({param_dim(spec)},)")
    if not (np.isfinite(scale).all() and (scale > 0.0).all()):
        raise ValueError("scale (sigma) must be finite and > 0 to give distinct pairs")
    try:
        _check_data(spec, data)
        if np.ndim(center):
            center = _check_stack(spec, np.asarray(center)[None])[0]
    except ValueError as exc:
        raise ProbeFailure(0, str(exc)) from exc
    stack = probe_stack_size(spec, data)
    probe_seeds = derive_seeds((rng_seed,), range(n_probes))
    samples = []
    for first in range(0, n_probes, stack):
        U, V = _draw_stack(spec, center, scale, probe_seeds[first : first + stack])
        samples.append(_stack_samples(spec, U, V, data, g_formula, first))
    return np.concatenate(samples)


def constants_from_samples(samples) -> ConstantsEstimate:
    """Reduce an ``(n, 2)`` array of (m, g) rows: mu = min m, L = max m, G = max g,
    each the first of equal extremes in probe order, as Python's ``min`` and
    ``max`` pick it (``ndarray.min`` of ``[0.0, -0.0]`` gives ``-0.0``)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 2 or not len(samples):
        raise ValueError(f"need an (n, 2) array of n >= 1 probe samples, not {samples.shape}")
    m, g = samples.T
    return ConstantsEstimate(
        mu=float(m[m.argmin()]),
        L=float(m[m.argmax()]),
        G=float(g[g.argmax()]),
        n_probes=len(samples),
    )


def aggregate_global(per_node) -> ConstantsEstimate:
    """Worst-case federation-wide constants from per-node estimates.

    G and L take the maximum and mu the minimum across nodes, each the
    direction that makes the convergence bound largest; probe counts add up.
    """
    estimates = tuple(per_node)
    if not estimates:
        raise ValueError("need at least one per-node estimate")
    return ConstantsEstimate(
        mu=min(e.mu for e in estimates),
        L=max(e.L for e in estimates),
        G=max(e.G for e in estimates),
        n_probes=sum(e.n_probes for e in estimates),
    )


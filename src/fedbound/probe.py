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
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    _check_data,
    _check_inputs,
    _check_params,
    _loss_and_grad_stacked,
    draw_init_like,
    gradient,
    loss,
)
from .rng import derive_seed, spawn_rng

# Below this squared distance a pair is useless for the m formula; pairs are
# redrawn rather than divided through.
DEGENERATE_SQ_DIST = 1e-30

G_FORMULAS = ("gradient-norm", "loss-magnitude")

# Probes evaluated in one stacked kernel call hold about this many floats in
# each (probe, row, max(hidden, classes)) intermediate, a few MB at most.
STACK_ELEMENTS = 1 << 18


class DegeneratePairError(ValueError):
    """Raised when u and v (nearly) coincide and cannot be separated."""


class ProbeFailure(RuntimeError):
    """A single probe produced an error or a non-finite value."""

    def __init__(self, probe_index: int, reason: str):
        super().__init__(f"probe {probe_index} failed: {reason}")
        self.probe_index = probe_index


@dataclass(frozen=True)
class ProbeSample:
    """The (m, g) pair produced by one probe."""

    m_value: float
    g_value: float

    def __post_init__(self):
        if not (np.isfinite(self.m_value) and np.isfinite(self.g_value)):
            raise ValueError("probe values must be finite")
        if self.g_value < 0.0:
            raise ValueError("g_value must be nonnegative")


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


@dataclass(frozen=True)
class InitDistributionSampler:
    """Draws probe points from the model's initialization distribution."""

    def draw(self, spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
        return draw_init_like(spec, rng)


@dataclass(frozen=True)
class GaussianPerturbationSampler:
    """Draws probe points as ``center + sigma * N(0, I)``.

    Useful for probing around current weights instead of fresh ones, e.g.
    to compare probe-time against training-time gradient magnitudes.
    """

    center: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be > 0 (a zero-width sampler cannot produce distinct pairs)")

    def draw(self, spec: ModelSpec, rng: np.random.Generator) -> ParamVector:
        center = np.asarray(self.center, dtype=np.float64)
        return center + self.sigma * rng.standard_normal(center.size)


ProbeSampler = InitDistributionSampler | GaussianPerturbationSampler


def draw_probe_pair(
    spec: ModelSpec, sampler: ProbeSampler, rng_seed: int
) -> tuple[ParamVector, ParamVector]:
    """Two distinct random parameter vectors; v is redrawn on collision."""
    rng = spawn_rng("probe-pair", rng_seed)
    u = sampler.draw(spec, rng)
    v = sampler.draw(spec, rng)
    for _ in range(100):
        diff = u - v
        if diff @ diff >= DEGENERATE_SQ_DIST:
            return u, v
        v = sampler.draw(spec, rng)
    raise DegeneratePairError("sampler keeps producing coincident pairs")


def _pair_values(spec: ModelSpec, U: np.ndarray, V: np.ndarray, data: Dataset):
    """F(u), F(v) and grad F(v) for stacked pairs; one kernel call per stack."""
    f_u, _ = _loss_and_grad_stacked(spec, U, data.features, data.labels, False)
    f_v, grad_v = _loss_and_grad_stacked(spec, V, data.features, data.labels, True)
    return f_u, f_v, grad_v


def _m_value(u: ParamVector, v: ParamVector, f_u: float, f_v: float, grad_v: ParamVector) -> float:
    diff = u - v
    sq_dist = float(diff @ diff)
    if sq_dist < DEGENERATE_SQ_DIST:
        raise DegeneratePairError(f"||u - v||^2 = {sq_dist} is below {DEGENERATE_SQ_DIST}")
    return 2.0 * (float(f_u) - float(f_v) + float((v - u) @ grad_v)) / sq_dist


def compute_m(spec: ModelSpec, u: ParamVector, v: ParamVector, data: Dataset) -> float:
    """Normalized curvature of the loss between two parameter vectors.

    For a quadratic objective this is exactly the Rayleigh quotient of the
    curvature matrix along u - v, hence bracketed by its extreme eigenvalues.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("u and v must have identical shapes")
    u = _check_inputs(spec, u, data)
    v = _check_params(spec, v)
    f_u, f_v, grad_v = _pair_values(spec, u[None], v[None], data)
    return _m_value(u, v, f_u[0], f_v[0], grad_v[0])


def compute_g(spec: ModelSpec, v: ParamVector, data: Dataset) -> float:
    """Euclidean norm of the loss gradient at v."""
    return float(np.linalg.norm(gradient(spec, v, data)))


def compute_g_loss_magnitude(spec: ModelSpec, v: ParamVector, data: Dataset) -> float:
    """Alternative g reading: the loss magnitude |F(v)| instead of ||grad F(v)||."""
    return abs(loss(spec, v, data))


def probe_stack_size(spec: ModelSpec, data: Dataset) -> int:
    """Probes per stacked evaluation, from the size of one probe's intermediates."""
    return max(1, STACK_ELEMENTS // (len(data) * max(spec.hidden_width, spec.num_classes)))


def _stack_samples(
    spec: ModelSpec,
    pairs: list[tuple[ParamVector, ParamVector]],
    data: Dataset,
    g_formula: str,
    first: int,
) -> list[ProbeSample]:
    """Evaluate the pairs of probes ``first, first + 1, ...`` as one stack."""
    U = np.stack([u for u, _ in pairs])
    V = np.stack([v for _, v in pairs])
    try:
        f_u, f_v, grad_v = _pair_values(spec, U, V, data)
    except Exception as exc:
        raise ProbeFailure(first, str(exc)) from exc
    samples = []
    for p in range(len(pairs)):
        try:
            m = _m_value(U[p], V[p], f_u[p], f_v[p], grad_v[p])
            if g_formula == "gradient-norm":
                g = float(np.linalg.norm(grad_v[p]))
            else:
                g = abs(float(f_v[p]))
            samples.append(ProbeSample(m, g))
        except Exception as exc:
            raise ProbeFailure(first + p, str(exc)) from exc
    return samples


def collect_probes(
    spec: ModelSpec,
    data: Dataset,
    n_probes: int,
    sampler: ProbeSampler,
    rng_seed: int,
    g_formula: str = "gradient-norm",
) -> tuple[ProbeSample, ...]:
    """Run the probe loop and keep every (m, g) sample.

    Probe i uses a seed derived from (rng_seed, i) only, so a longer run
    extends a shorter one sample-for-sample. Pairs are drawn one probe at a
    time, in order, and evaluated :func:`probe_stack_size` probes at a time.
    A failure names the first probe that raised or gave a non-finite value.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if g_formula not in G_FORMULAS:
        raise ValueError(f"g_formula must be one of {G_FORMULAS}")
    try:
        _check_data(spec, data)
    except ValueError as exc:
        raise ProbeFailure(0, str(exc)) from exc
    stack = probe_stack_size(spec, data)
    samples: list[ProbeSample] = []
    for first in range(0, n_probes, stack):
        pairs, failure = [], None
        for i in range(first, min(first + stack, n_probes)):
            try:
                u, v = draw_probe_pair(spec, sampler, derive_seed(rng_seed, i))
                pairs.append((_check_params(spec, u), _check_params(spec, v)))
            except ProbeFailure:
                raise
            except Exception as exc:
                failure = (i, exc)
                break
        if pairs:
            samples.extend(_stack_samples(spec, pairs, data, g_formula, first))
        if failure is not None:
            i, exc = failure
            raise ProbeFailure(i, str(exc)) from exc
    return tuple(samples)


def constants_from_samples(samples) -> ConstantsEstimate:
    """Reduce probe samples: mu = min m, L = max m, G = max g."""
    samples = tuple(samples)
    if not samples:
        raise ValueError("no probe samples")
    return ConstantsEstimate(
        mu=min(s.m_value for s in samples),
        L=max(s.m_value for s in samples),
        G=max(s.g_value for s in samples),
        n_probes=len(samples),
    )


def estimate_constants(
    spec: ModelSpec,
    data: Dataset,
    n_probes: int,
    sampler: ProbeSampler,
    rng_seed: int,
    g_formula: str = "gradient-norm",
) -> ConstantsEstimate:
    """Full probing procedure: draw pairs, collect (m, g), reduce to (mu, L, G)."""
    if n_probes < 2:
        raise ValueError("n_probes must be >= 2 (a single probe pins mu = L trivially)")
    return constants_from_samples(
        collect_probes(spec, data, n_probes, sampler, rng_seed, g_formula)
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


def write_probes_csv(path: Path | str, samples_by_node: dict[int, tuple[ProbeSample, ...]]) -> None:
    """Export raw probe samples as rows of node_id, probe_index, m_value, g_value."""
    rows = []
    for node_id in sorted(samples_by_node):
        for idx, sample in enumerate(samples_by_node[node_id]):
            rows.append((node_id, idx, sample.m_value, sample.g_value))
    write_csv(path, ("node_id", "probe_index", "m_value", "g_value"), rows)

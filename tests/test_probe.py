import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbound import probe
from fedbound.flsim import ScenarioConfig
from fedbound.model import (
    Dataset,
    init_params,
    init_scales,
    mlp_spec,
    param_dim,
    quadratic_spec,
    loss,
    sgd_epoch_traced,
    softmax_spec,
)
from fedbound.probe import (
    ConstantsEstimate,
    DegeneratePairError,
    ProbeFailure,
    aggregate_global,
    collect_probes,
    compute_g,
    compute_m,
    constants_from_samples,
    probe_stack_size,
)
from fedbound.rng import derive_seed, spawn_rng


def dummy_data(dim=2):
    return Dataset(np.full((1, dim), 0.5), np.zeros(1, dtype=np.int64), 1)


def draw_probe_pair(spec, rng_seed, center=0.0, scale=None):
    """Reference pair of the probe seeded ``rng_seed``: u and v are
    ``center + scale * z`` for the first and second ``dim`` normals z of its
    ``probe-pair`` stream; ``scale`` defaults to the init scales."""
    u, v = spawn_rng("probe-pair", rng_seed).standard_normal((2, param_dim(spec)))
    scale = init_scales(spec) if scale is None else scale
    return center + scale * u, center + scale * v


def recorded_draws(monkeypatch) -> list[list[int]]:
    """The list to which each stack draw of ``collect_probes`` appends its seeds."""
    draws, normal_rows = [], probe.normal_rows

    def recorded(label, seeds, n):
        draws.append(list(seeds))
        return normal_rows(label, seeds, n)

    monkeypatch.setattr(probe, "normal_rows", recorded)
    return draws


class TestDrawProbePair:
    def test_same_seed_same_pair(self):
        spec = quadratic_spec([1.0, 2.0, 3.0])
        U, V = probe._draw_stack(spec, 0.0, init_scales(spec), [5, 5])
        u, v = draw_probe_pair(spec, 5)
        assert U.tobytes() == np.stack([u, u]).tobytes()
        assert V.tobytes() == np.stack([v, v]).tobytes()

    def test_pair_is_distinct(self):
        spec = quadratic_spec([1.0, 1.0])
        U, V = probe._draw_stack(spec, 0.0, init_scales(spec), list(range(50)))
        assert (np.linalg.norm(U - V, axis=1) > 0).all()

    def test_zero_sigma_sampler_rejected(self, monkeypatch):
        draws = recorded_draws(monkeypatch)
        spec = quadratic_spec([1.0, 2.0])
        with pytest.raises(ValueError):
            collect_probes(spec, dummy_data(2), 5, 0, center=np.array([1.0, 2.0]), scale=0.0)
        assert draws == []

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_sampler_rejected(self, monkeypatch, sigma):
        draws = recorded_draws(monkeypatch)
        spec = quadratic_spec([1.0, 2.0])
        with pytest.raises(ValueError, match="sigma"):
            collect_probes(spec, dummy_data(2), 5, 0, center=np.array([1.0, 2.0]), scale=sigma)
        assert draws == []

    @pytest.mark.parametrize(
        "scale, message",
        [
            ([0.5, 0.5, 0.5], "shape"),
            ([0.5, -0.5], "finite and > 0 to give distinct pairs"),
            ([0.5, np.nan], "finite and > 0 to give distinct pairs"),
        ],
    )
    def test_bad_scale_vector_rejected_before_any_draw(self, monkeypatch, scale, message):
        draws = recorded_draws(monkeypatch)
        with pytest.raises(ValueError, match=message):
            collect_probes(quadratic_spec([1.0, 2.0]), dummy_data(2), 5, 0, scale=scale)
        assert draws == []

    def test_perturbation_sampler_centers_draws(self):
        spec = quadratic_spec([1.0] * 4)
        U, V = probe._draw_stack(spec, np.full(4, 10.0), 0.01, [0])
        assert np.all(np.abs(U - 10.0) < 1.0)
        assert np.all(np.abs(V - 10.0) < 1.0)


class TestComputeM:
    def test_identity_quadratic_gives_one(self):
        spec = quadratic_spec([1.0, 1.0, 1.0])
        data = dummy_data(3)
        rng = spawn_rng("m-identity", 0)
        for _ in range(20):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert compute_m(spec, u, v, data) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_quadratic_matches_rayleigh_quotient(self):
        diag = np.array([0.5, 2.0, 7.0, 1.5])
        spec = quadratic_spec(diag)
        data = dummy_data(4)
        rng = spawn_rng("m-rayleigh", 0)
        for _ in range(50):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            d = u - v
            rayleigh = float(d @ (diag * d)) / float(d @ d)
            m = compute_m(spec, u, v, data)
            assert m == pytest.approx(rayleigh, rel=1e-9)
            assert diag.min() - 1e-12 <= m <= diag.max() + 1e-12

    def test_hand_computed_example(self):
        # u = 2v with v = (1, 1): u - v = (1, 1), so m = (1 + 3) / 2 = 2.
        spec = quadratic_spec([1.0, 3.0])
        v = np.array([1.0, 1.0])
        assert compute_m(spec, 2 * v, v, dummy_data(2)) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pair_rejected(self):
        spec = quadratic_spec([1.0, 1.0])
        w = np.array([1.0, 2.0])
        with pytest.raises(DegeneratePairError):
            compute_m(spec, w, w.copy(), dummy_data(2))


class TestComputeG:
    def test_identity_quadratic_norm(self):
        spec = quadratic_spec([1.0, 1.0])
        assert compute_g(spec, np.array([3.0, 4.0]), dummy_data(2)) == pytest.approx(5.0)

    def test_converged_minimum_has_tiny_g(self):
        rng = spawn_rng("g-min", 0)
        data = Dataset(rng.uniform(0, 1, (30, 4)), rng.integers(0, 3, 30), 3)
        spec = softmax_spec(4, 3, l2=0.05)
        params = init_params(spec, 0)
        for epoch in range(400):
            order = spawn_rng("sgd", epoch).permutation(30)
            params = sgd_epoch_traced(spec, params[None], data, 0.5, 30, order[None])[0][0]
        assert compute_g(spec, params, data) < 1e-3

    def test_invariant_under_sample_reordering(self):
        rng = spawn_rng("g-perm", 0)
        data = Dataset(rng.uniform(0, 1, (20, 3)), rng.integers(0, 2, 20), 2)
        spec = softmax_spec(3, 2)
        v = init_params(spec, 1)
        perm = spawn_rng("g-perm", 1).permutation(20)
        shuffled = Dataset(data.features[perm], data.labels[perm], 2)
        assert compute_g(spec, v, data) == pytest.approx(compute_g(spec, v, shuffled), rel=1e-12)

    def test_loss_magnitude_variant(self):
        spec = quadratic_spec([2.0, 2.0])
        v = np.array([1.0, 1.0])
        # 0.5 * v^T diag(2,2) v = 2.
        assert abs(loss(spec, v[None], dummy_data(2))[0]) == pytest.approx(2.0)


class TestEstimateConstants:
    def test_identity_quadratic_pins_mu_and_l(self):
        spec = quadratic_spec([1.0, 1.0, 1.0])
        data = dummy_data(3)
        est = constants_from_samples(collect_probes(spec, data, 50, 3))
        assert est.mu == pytest.approx(1.0, abs=1e-9)
        assert est.L == pytest.approx(1.0, abs=1e-9)
        # With H = I the gradient at v is v itself.
        samples = collect_probes(spec, data, 50, 3)
        assert est.G == pytest.approx(samples[:, 1].max())
        assert est.n_probes == 50

    def test_diag_quadratic_brackets_eigenvalues(self):
        spec = quadratic_spec([1.0, 4.0])
        est = constants_from_samples(
            collect_probes(spec, dummy_data(2), 1000, 11)
        )
        assert 1.0 - 1e-9 <= est.mu <= est.L <= 4.0 + 1e-9

    def test_single_probe_rejected(self):
        # A single probe pins mu = L trivially; runs take n_probes from the config.
        with pytest.raises(ValueError, match="n_probes"):
            ScenarioConfig(
                n_nodes=1, samples_per_node=1, rounds=1, model=softmax_spec(3, 2), n_probes=1
            )

    def test_probe_failure_carries_index(self):
        spec = softmax_spec(3, 2)
        mismatched = Dataset(np.full((2, 5), 0.5), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(ProbeFailure) as excinfo:
            collect_probes(spec, mismatched, 4, 0)
        assert excinfo.value.probe_index == 0

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_monotone_refinement(self, extra, seed):
        spec = quadratic_spec([0.5, 2.5, 5.0])
        data = dummy_data(3)
        small = constants_from_samples(collect_probes(spec, data, 5, seed))
        big = constants_from_samples(collect_probes(spec, data, 5 + extra, seed))
        assert big.mu <= small.mu
        assert big.L >= small.L
        assert big.G >= small.G

    def test_mu_never_exceeds_l(self):
        for seed in range(10):
            est = constants_from_samples(
                collect_probes(quadratic_spec([1.0, 9.0]), dummy_data(2), 20, seed)
            )
            assert est.mu <= est.L


class TestAggregateGlobal:
    def test_takes_largest_g(self):
        nodes = [
            ConstantsEstimate(mu=0.1, L=1.0, G=g, n_probes=10) for g in (1.0, 5.0, 2.0)
        ]
        assert aggregate_global(nodes).G == 5.0

    def test_single_node_is_identity(self):
        est = ConstantsEstimate(mu=0.2, L=1.5, G=3.0, n_probes=7)
        assert aggregate_global([est]) == est

    def test_worst_case_mu_and_l(self):
        nodes = [
            ConstantsEstimate(mu=0.5, L=2.0, G=1.0, n_probes=5),
            ConstantsEstimate(mu=1.0, L=1.5, G=1.0, n_probes=5),
        ]
        agg = aggregate_global(nodes)
        assert agg.mu == 0.5
        assert agg.L == 2.0
        assert agg.n_probes == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_global([])

    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5),
                st.floats(0, 5),
                st.floats(0, 10),
                st.integers(1, 50),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_order_invariant(self, raw, shuffler):
        nodes = [
            ConstantsEstimate(mu=mu, L=mu + spread, G=g, n_probes=n)
            for mu, spread, g, n in raw
        ]
        agg = aggregate_global(nodes)
        assert aggregate_global([agg]) == agg
        shuffled = list(nodes)
        shuffler.shuffle(shuffled)
        assert aggregate_global(shuffled) == agg


class TestConstantsEstimate:
    def test_mu_above_l_rejected(self):
        with pytest.raises(ValueError):
            ConstantsEstimate(mu=2.0, L=1.0, G=0.0, n_probes=2)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            ConstantsEstimate(mu=0.0, L=1.0, G=-1.0, n_probes=2)

    def test_constants_from_samples_reduces_min_max(self):
        samples = np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 1.0]])
        est = constants_from_samples(samples)
        assert (est.mu, est.L, est.G, est.n_probes) == (1.0, 3.0, 2.0, 3)

    @pytest.mark.parametrize("shape", [(0, 2), (3,), (3, 3), (2, 3, 2)])
    def test_constants_from_samples_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="probe samples"):
            constants_from_samples(np.ones(shape))

    # Python's min and max keep the first of equal values; a reduction that
    # keeps another one differs in the sign of a zero.
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3),
                st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1e3),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @example([(0.0, 0.0), (-0.0, -0.0)])
    @example([(-0.0, -0.0), (0.0, 0.0)])
    @example([(1.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (1.0, 0.0)])
    @settings(max_examples=200, deadline=None)
    def test_reduction_equals_python_min_max_in_probe_order(self, rows):
        m = [float(row[0]) for row in rows]
        g = [float(row[1]) for row in rows]
        est = constants_from_samples(np.array(rows))
        expected = struct.pack("<3d", min(m), max(m), max(g))
        assert struct.pack("<3d", est.mu, est.L, est.G) == expected
        assert est.n_probes == len(rows)


def small_stacks(monkeypatch, spec, data, stack):
    """Shrink the element budget so that ``stack`` probes share one evaluation."""
    per_probe = len(data) * max(spec.hidden_width, spec.num_classes)
    monkeypatch.setattr(probe, "STACK_ELEMENTS", stack * per_probe)
    assert probe_stack_size(spec, data) == stack


class Poisoned:
    """Init-distribution pairs, except for the probes ``kinds`` names, found
    by their seeds: a "degenerate" probe draws u and v at one point, an "inf"
    probe's v is infinite, and a "value" probe's u lies so far out that its
    L2 penalty overflows."""

    def __init__(self, rng_seed, kinds):
        self.kinds = {derive_seed(rng_seed, i): kind for i, kind in kinds.items()}

    def poison(self, seed, u, v):
        """Poison, in place, the pair that the probe seeded ``seed`` drew."""
        kind = self.kinds.get(seed)
        if kind == "degenerate":
            u[:] = v[:] = 0.0
        elif kind == "inf":
            v[:] = np.inf
        elif kind == "value":
            u[:] = 1e200

    def install(self, monkeypatch):
        """Make ``probe._draw_stack`` poison the rows of the probes ``kinds`` names."""
        draw_stack = probe._draw_stack

        def poisoned(spec, center, scale, seeds):
            U, V = draw_stack(spec, center, scale, seeds)
            for p, seed in enumerate(seeds):
                self.poison(seed, U[p], V[p])
            return U, V

        monkeypatch.setattr(probe, "_draw_stack", poisoned)


def first_failure(spec, data, n_probes, rng_seed, center=0.0, scale=None, poisoned=None):
    """The first probe the single-vector oracles reject, and their error, or None."""
    with np.errstate(all="ignore"):
        for i in range(n_probes):
            try:
                seed = derive_seed(rng_seed, i)
                u, v = draw_probe_pair(spec, seed, center, scale)
                if poisoned is not None:
                    poisoned.poison(seed, u, v)
                m, g = compute_m(spec, u, v, data), compute_g(spec, v, data)
                if not (math.isfinite(m) and math.isfinite(g)):
                    raise ValueError("probe values must be finite")
            except ValueError as exc:
                return i, exc
    return None


@st.composite
def poisonings(draw):
    n_probes = draw(st.integers(1, 8))
    stack = draw(st.integers(1, n_probes))
    kinds = draw(
        st.dictionaries(
            st.integers(0, n_probes - 1), st.sampled_from(["degenerate", "inf", "value"])
        )
    )
    return n_probes, stack, kinds


class TestStackedProbes:
    CASES = [
        (softmax_spec(5, 3, l2=0.02), "gradient-norm"),
        (mlp_spec(5, 3, 4, l2=0.0), "gradient-norm"),
        (mlp_spec(5, 3, 4, l2=0.02), "loss-magnitude"),
    ]

    @pytest.mark.parametrize("spec,g_formula", CASES)
    def test_equals_per_probe_evaluation_bit_for_bit(self, monkeypatch, spec, g_formula):
        rng = spawn_rng("toy", 4)
        data = Dataset(rng.uniform(0, 1, (30, 5)), rng.integers(0, 3, 30), 3)
        small_stacks(monkeypatch, spec, data, 3)
        g_of = compute_g if g_formula == "gradient-norm" else lambda s, v, d: abs(loss(s, v[None], d)[0])
        for center, scale in ((0.0, None), (init_params(spec, 2), 0.3)):
            samples = collect_probes(spec, data, 11, 9, g_formula, center, scale)
            assert len(samples) == 11
            for i, (m, g) in enumerate(samples):
                u, v = draw_probe_pair(spec, derive_seed(9, i), center, scale)
                assert m == compute_m(spec, u, v, data)
                assert g == g_of(spec, v, data)

    @pytest.mark.parametrize("stack", [1, 2, 4])
    def test_prefix_holds_across_stack_boundaries(self, monkeypatch, stack):
        spec = softmax_spec(4, 2, l2=0.01)
        rng = spawn_rng("toy", 5)
        data = Dataset(rng.uniform(0, 1, (20, 4)), rng.integers(0, 2, 20), 2)
        whole = collect_probes(spec, data, 9, 3)
        small_stacks(monkeypatch, spec, data, stack)
        short = collect_probes(spec, data, 5, 3)
        longer = collect_probes(spec, data, 9, 3)
        np.testing.assert_array_equal(short, longer[:5])
        np.testing.assert_array_equal(longer, whole)

    @pytest.mark.parametrize("stack", [1, 2, 3, 8])
    def test_failure_names_first_failing_probe(self, monkeypatch, stack):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 6)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, stack)
        Poisoned(0, dict.fromkeys(range(3, 6), "degenerate")).install(monkeypatch)
        with pytest.raises(ProbeFailure) as excinfo:
            collect_probes(spec, data, 6, 0)
        assert excinfo.value.probe_index == 3
        assert isinstance(excinfo.value.__cause__, DegeneratePairError)

    # An infinite vector is its probe's, whichever stack holds it.
    @pytest.mark.parametrize("stack", [1, 3, 8])
    @pytest.mark.parametrize("bad, message", [("inf", "non-finite")])
    def test_bad_vector_names_its_probe(self, monkeypatch, stack, bad, message):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 7)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, stack)
        Poisoned(0, {4: bad}).install(monkeypatch)
        with pytest.raises(ProbeFailure, match=message) as excinfo:
            collect_probes(spec, data, 8, 0)
        assert excinfo.value.probe_index == 4

    @pytest.mark.parametrize(
        "center, message", [((0.0,) * 7, "shape"), ((np.inf,) + (0.0,) * 9, "non-finite")]
    )
    def test_bad_perturbation_center_names_probe_0(self, monkeypatch, center, message):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 7)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        draws = recorded_draws(monkeypatch)
        with pytest.raises(ProbeFailure, match=message) as excinfo:
            collect_probes(spec, data, 5, 0, center=center, scale=0.1)
        assert excinfo.value.probe_index == 0
        assert draws == []

    # A bad vector later in the same stack (the v of probe 5) does not hide
    # the earlier probe's failure.
    @pytest.mark.parametrize("bad_later", [False, True])
    def test_non_finite_value_names_its_probe(self, monkeypatch, bad_later):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 8)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, 3)
        pair_values, calls = probe._pair_values, []

        def poisoned(*args):
            f_u, f_v, grad_v = pair_values(*args)
            calls.append(1)
            if len(calls) == 2:
                f_u[1] = np.inf  # probe 3 + 1
            return f_u, f_v, grad_v

        monkeypatch.setattr(probe, "_pair_values", poisoned)
        if bad_later:
            Poisoned(0, {5: "inf"}).install(monkeypatch)
        with pytest.raises(ProbeFailure, match="probe 4 failed: probe values must be finite"):
            collect_probes(spec, data, 9, 0)

    @given(poisonings())
    @settings(max_examples=40, deadline=None)
    def test_first_poisoned_probe_is_named(self, case):
        n_probes, stack, kinds = case
        spec = softmax_spec(4, 2, l2=0.01)
        rng = spawn_rng("toy", 10)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        poisoned = Poisoned(0, kinds)
        expected = first_failure(spec, data, n_probes, 0, poisoned=poisoned)
        with pytest.MonkeyPatch.context() as mp:
            small_stacks(mp, spec, data, stack)
            poisoned.install(mp)
            if not kinds:
                assert expected is None
                assert len(collect_probes(spec, data, n_probes, 0)) == n_probes
                return
            with pytest.raises(ProbeFailure) as excinfo:
                collect_probes(spec, data, n_probes, 0)
        index, exc = expected
        assert excinfo.value.probe_index == index == min(kinds)
        cause = excinfo.value.__cause__
        assert type(cause) is type(exc)
        assert isinstance(cause, DegeneratePairError) == (kinds[index] == "degenerate")
        assert str(cause) == str(exc)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound import probe
from fedbound.model import (
    Dataset,
    init_params,
    mlp_spec,
    param_dim,
    quadratic_spec,
    sgd_epoch,
    softmax_spec,
)
from fedbound.probe import (
    ConstantsEstimate,
    DegeneratePairError,
    GaussianPerturbationSampler,
    InitDistributionSampler,
    ProbeFailure,
    ProbeSample,
    aggregate_global,
    collect_probes,
    compute_g,
    compute_g_loss_magnitude,
    compute_m,
    constants_from_samples,
    draw_probe_pair,
    estimate_constants,
    probe_stack_size,
    write_probes_csv,
)
from fedbound.rng import derive_seed, spawn_rng


def dummy_data(dim=2):
    return Dataset(np.full((1, dim), 0.5), np.zeros(1, dtype=np.int64), 1)


class TestDrawProbePair:
    def test_same_seed_same_pair(self):
        spec = quadratic_spec([1.0, 2.0, 3.0])
        sampler = InitDistributionSampler()
        u1, v1 = draw_probe_pair(spec, sampler, 5)
        u2, v2 = draw_probe_pair(spec, sampler, 5)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)

    def test_pair_is_distinct(self):
        spec = quadratic_spec([1.0, 1.0])
        for seed in range(50):
            u, v = draw_probe_pair(spec, InitDistributionSampler(), seed)
            assert np.linalg.norm(u - v) > 0

    def test_zero_sigma_sampler_rejected(self):
        with pytest.raises(ValueError):
            GaussianPerturbationSampler(center=(1.0, 2.0), sigma=0.0)

    def test_perturbation_sampler_centers_draws(self):
        spec = quadratic_spec([1.0] * 4)
        sampler = GaussianPerturbationSampler(center=(10.0, 10.0, 10.0, 10.0), sigma=0.01)
        u, v = draw_probe_pair(spec, sampler, 0)
        assert np.all(np.abs(u - 10.0) < 1.0)
        assert np.all(np.abs(v - 10.0) < 1.0)


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
            params = sgd_epoch(spec, params, data, lr=0.5, batch_size=30, rng_seed=epoch)
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
        assert compute_g_loss_magnitude(spec, v, dummy_data(2)) == pytest.approx(2.0)


class TestEstimateConstants:
    def test_identity_quadratic_pins_mu_and_l(self):
        spec = quadratic_spec([1.0, 1.0, 1.0])
        data = dummy_data(3)
        est = estimate_constants(spec, data, 50, InitDistributionSampler(), 3)
        assert est.mu == pytest.approx(1.0, abs=1e-9)
        assert est.L == pytest.approx(1.0, abs=1e-9)
        # With H = I the gradient at v is v itself.
        samples = collect_probes(spec, data, 50, InitDistributionSampler(), 3)
        assert est.G == pytest.approx(max(s.g_value for s in samples))
        assert est.n_probes == 50

    def test_diag_quadratic_brackets_eigenvalues(self):
        spec = quadratic_spec([1.0, 4.0])
        est = estimate_constants(spec, dummy_data(2), 1000, InitDistributionSampler(), 11)
        assert 1.0 - 1e-9 <= est.mu <= est.L <= 4.0 + 1e-9

    def test_single_probe_rejected(self):
        with pytest.raises(ValueError):
            estimate_constants(
                quadratic_spec([1.0]), dummy_data(1), 1, InitDistributionSampler(), 0
            )

    def test_probe_failure_carries_index(self):
        spec = softmax_spec(3, 2)
        mismatched = Dataset(np.full((2, 5), 0.5), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(ProbeFailure) as excinfo:
            collect_probes(spec, mismatched, 4, InitDistributionSampler(), 0)
        assert excinfo.value.probe_index == 0

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_monotone_refinement(self, extra, seed):
        spec = quadratic_spec([0.5, 2.5, 5.0])
        data = dummy_data(3)
        small = estimate_constants(spec, data, 5, InitDistributionSampler(), seed)
        big = estimate_constants(spec, data, 5 + extra, InitDistributionSampler(), seed)
        assert big.mu <= small.mu
        assert big.L >= small.L
        assert big.G >= small.G

    def test_mu_never_exceeds_l(self):
        for seed in range(10):
            est = estimate_constants(
                quadratic_spec([1.0, 9.0]), dummy_data(2), 20, InitDistributionSampler(), seed
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


class TestProbeCsv:
    def test_rows_ordered_by_node_then_index(self, tmp_path):
        samples = {
            1: (ProbeSample(0.5, 1.0), ProbeSample(0.7, 2.0)),
            0: (ProbeSample(0.1, 3.0),),
        }
        path = tmp_path / "probes.csv"
        write_probes_csv(path, samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "node_id,probe_index,m_value,g_value"
        assert lines[1] == "0,0,0.1,3"
        assert lines[2] == "1,0,0.5,1"
        assert lines[3] == "1,1,0.7,2"


class TestConstantsEstimate:
    def test_mu_above_l_rejected(self):
        with pytest.raises(ValueError):
            ConstantsEstimate(mu=2.0, L=1.0, G=0.0, n_probes=2)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            ConstantsEstimate(mu=0.0, L=1.0, G=-1.0, n_probes=2)

    def test_constants_from_samples_reduces_min_max(self):
        samples = [ProbeSample(1.0, 2.0), ProbeSample(3.0, 0.5), ProbeSample(2.0, 1.0)]
        est = constants_from_samples(samples)
        assert (est.mu, est.L, est.G, est.n_probes) == (1.0, 3.0, 2.0, 3)


def small_stacks(monkeypatch, spec, data, stack):
    """Shrink the element budget so that ``stack`` probes share one evaluation."""
    per_probe = len(data) * max(spec.hidden_width, spec.num_classes)
    monkeypatch.setattr(probe, "STACK_ELEMENTS", stack * per_probe)
    assert probe_stack_size(spec, data) == stack


def first_normals(spec, rng_seed, i):
    """The standard normals probe i maps to its first pair, one row for u and one for v."""
    dim = param_dim(spec)
    stream = spawn_rng("probe-pair", derive_seed(rng_seed, i))
    return stream.standard_normal(2 * dim).reshape(2, dim)


def matches(z, rows):
    """Which vectors of ``z`` (``(..., dim)``) equal one of ``rows``."""
    return (z[..., None, :] == rows).all(axis=-1).any(axis=-1)


class CoincidentFrom:
    """Init-distribution points for the first pairs of the probes before
    ``start``; any other normals map to one fixed point."""

    def __init__(self, spec, rng_seed, start):
        pairs = [first_normals(spec, rng_seed, i) for i in range(start)]
        self.clean = np.array(pairs).reshape(-1, param_dim(spec))

    def map(self, spec, z):
        w = InitDistributionSampler().map(spec, z)
        w[~matches(z, self.clean)] = 0.0
        return w


class BadDraw:
    """Init-distribution points, except that the v of probe ``target`` is infinite or too short."""

    def __init__(self, spec, rng_seed, target, bad):
        self.v = first_normals(spec, rng_seed, target)[1:]
        self.bad = bad

    def map(self, spec, z):
        w = InitDistributionSampler().map(spec, z)
        hit = matches(z, self.v)
        if not hit.any():
            return w
        if self.bad == "inf":
            w[hit] = np.inf
            return w
        return w[..., :-1]


class CoincidentFirstPair:
    """Init-distribution points, except that the first v of probe ``target``
    lands on its u, so that probe must redraw v."""

    def __init__(self, spec, rng_seed, target):
        self.u, self.v = first_normals(spec, rng_seed, target)

    def map(self, spec, z):
        z = np.where(matches(z, self.v[None])[..., None], self.u, z)
        return InitDistributionSampler().map(spec, z)


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
        g_of = compute_g if g_formula == "gradient-norm" else compute_g_loss_magnitude
        perturb = GaussianPerturbationSampler(tuple(init_params(spec, 2)), 0.3)
        for sampler in (InitDistributionSampler(), perturb):
            samples = collect_probes(spec, data, 11, sampler, 9, g_formula)
            assert len(samples) == 11
            for i, sample in enumerate(samples):
                u, v = draw_probe_pair(spec, sampler, derive_seed(9, i))
                assert sample.m_value == compute_m(spec, u, v, data)
                assert sample.g_value == g_of(spec, v, data)

    @pytest.mark.parametrize("stack", [1, 3, 8])
    def test_degenerate_pair_is_redrawn_as_draw_probe_pair_does(self, monkeypatch, stack):
        spec = softmax_spec(4, 2, l2=0.01)
        rng = spawn_rng("toy", 9)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, stack)
        sampler = CoincidentFirstPair(spec, 0, 4)
        u, v = draw_probe_pair(spec, sampler, derive_seed(0, 4))
        assert not np.array_equal(v, sampler.map(spec, sampler.u))
        samples = collect_probes(spec, data, 7, sampler, 0)
        assert samples[4].m_value == compute_m(spec, u, v, data)
        assert samples[4].g_value == compute_g(spec, v, data)
        assert samples[:4] + samples[5:] == tuple(
            s for i, s in enumerate(collect_probes(spec, data, 7, InitDistributionSampler(), 0))
            if i != 4
        )

    @pytest.mark.parametrize("stack", [1, 2, 4])
    def test_prefix_holds_across_stack_boundaries(self, monkeypatch, stack):
        spec = softmax_spec(4, 2, l2=0.01)
        rng = spawn_rng("toy", 5)
        data = Dataset(rng.uniform(0, 1, (20, 4)), rng.integers(0, 2, 20), 2)
        whole = collect_probes(spec, data, 9, InitDistributionSampler(), 3)
        small_stacks(monkeypatch, spec, data, stack)
        short = collect_probes(spec, data, 5, InitDistributionSampler(), 3)
        longer = collect_probes(spec, data, 9, InitDistributionSampler(), 3)
        assert short == longer[:5]
        assert longer == whole

    @pytest.mark.parametrize("stack", [1, 2, 3, 8])
    def test_failure_names_first_failing_probe(self, monkeypatch, stack):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 6)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, stack)
        with pytest.raises(ProbeFailure) as excinfo:
            collect_probes(spec, data, 6, CoincidentFrom(spec, 0, 3), 0)
        assert excinfo.value.probe_index == 3
        assert isinstance(excinfo.value.__cause__, DegeneratePairError)

    @pytest.mark.parametrize("stack", [1, 3, 8])
    @pytest.mark.parametrize("bad, message", [("inf", "non-finite"), ("short", "shape")])
    def test_bad_vector_names_its_probe(self, monkeypatch, stack, bad, message):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 7)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        small_stacks(monkeypatch, spec, data, stack)
        sampler = BadDraw(spec, 0, 4, bad)
        with pytest.raises(ProbeFailure, match=message) as excinfo:
            collect_probes(spec, data, 8, sampler, 0)
        assert excinfo.value.probe_index == 4

    @pytest.mark.parametrize(
        "center, message", [((0.0,) * 7, "shape"), ((np.inf,) + (0.0,) * 9, "non-finite")]
    )
    def test_bad_perturbation_center_names_probe_0(self, center, message):
        spec = softmax_spec(4, 2)
        rng = spawn_rng("toy", 7)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        with pytest.raises(ProbeFailure, match=message) as excinfo:
            collect_probes(spec, data, 5, GaussianPerturbationSampler(center, 0.1), 0)
        assert excinfo.value.probe_index == 0

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
        sampler = BadDraw(spec, 0, 5, "inf") if bad_later else InitDistributionSampler()
        with pytest.raises(ProbeFailure, match="probe 4 failed: probe values must be finite"):
            collect_probes(spec, data, 9, sampler, 0)

"""End-to-end acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -rA`` or ``-s``). The slow
federated fixtures are shared across the qualitative checks.
"""

import math
import time

import numpy as np
import pytest

from fedbound.analysis import _cdf_arrays, correlate, select_nodes, usefulness_from_rounds
from fedbound.bound import BoundParams, convergence_bound
from fedbound.cli import main
from fedbound.data import SyntheticSpec, gen_synthetic, gen_synthetic_nodes
from fedbound.flsim import (
    ScenarioConfig,
    Setup,
    fedavg,
    partition_dataset,
    probe_phase,
    run_federated,
    run_federated_partitioned,
)
from fedbound.model import (
    Dataset,
    finite_difference_gradient,
    gradient,
    init_params,
    mlp_spec,
    quadratic_spec,
    sgd_epoch_traced,
    softmax_spec,
)
from fedbound.probe import collect_probes, compute_g, compute_m
from fedbound.rng import derive_seed, spawn_rng

SEEDS = (1, 2, 3, 4, 5)

# Five-node scenario with moderate class overlap: hard enough that dropping a
# class genuinely lowers the achievable training loss.
PAIRED_DATA = SyntheticSpec(
    num_classes=4, feature_dim=8, samples_per_class=300,
    separation=0.6, noise_sigma=0.2,
)
PAIRED_MODEL = softmax_spec(8, 4, l2=0.01)

# Eight nodes whose feature scales spread their local curvature, gradient
# magnitudes, and training signal together.
HETERO_SCALES = tuple(float(s) for s in np.linspace(0.35, 1.0, 8))
HETERO_DATA = SyntheticSpec(
    num_classes=4, feature_dim=8, samples_per_class=10,
    separation=0.7, noise_sigma=0.12, feature_scale=HETERO_SCALES,
)
HETERO_MODEL = softmax_spec(8, 4, l2=0.01)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def paired_scenario(seed: int, missing: bool) -> ScenarioConfig:
    return ScenarioConfig(
        n_nodes=5, samples_per_node=150, rounds=30, model=PAIRED_MODEL,
        lr=0.1, batch_size=32, n_probes=60, seed=seed,
        missing_classes=frozenset({3}) if missing else frozenset(),
    )


@pytest.fixture(scope="module")
def paired_runs():
    """Baseline and missing-class runs per seed, plus their build time."""
    start = time.perf_counter()
    runs = {}
    for seed in SEEDS:
        data = gen_synthetic(PAIRED_DATA, seed)
        runs[seed] = (
            run_federated(paired_scenario(seed, missing=False), data),
            run_federated(paired_scenario(seed, missing=True), data),
        )
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def hetero_runs():
    """Eight-node feature-scale runs per seed, with their node datasets."""
    start = time.perf_counter()
    out = {}
    for seed in SEEDS:
        cfg = ScenarioConfig(
            n_nodes=8, samples_per_node=150, rounds=25, model=HETERO_MODEL,
            lr=0.05, batch_size=32, n_probes=80, seed=seed,
        )
        test_data, nodes = gen_synthetic_nodes(HETERO_DATA, 8, 150, n_test=400, seed=seed)
        setup = Setup(cfg, test_data, tuple(nodes), probe_phase(cfg, nodes))
        run = run_federated_partitioned(setup)
        out[seed] = (run, test_data, nodes)
    return out, time.perf_counter() - start


def test_01_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = spawn_rng("acceptance-grad", 0)
    worst = 0.0
    for case in range(100):
        dim = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 6))
        l2 = float(rng.uniform(0, 0.3))
        if case % 2:
            spec = mlp_spec(dim, classes, int(rng.integers(2, 6)), l2=l2)
        else:
            spec = softmax_spec(dim, classes, l2=l2)
        n = int(rng.integers(2, 10))
        data = Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, classes, n), classes)
        params = init_params(spec, 5000 + case)
        analytic = gradient(spec, params[None], data)[0]
        numeric = finite_difference_gradient(spec, params, data, step=1e-5)
        worst = max(
            worst,
            float(np.abs(analytic - numeric).max()) / max(float(np.abs(analytic).max()), 1e-8),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report("01 gradient-vs-finite-differences", ok,
           f"max rel err {worst:.3g} over 100 configs, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_02_quadratic_probe_oracle():
    start = time.perf_counter()
    data = Dataset(np.full((1, 2), 0.5), np.zeros(1, dtype=np.int64), 1)

    spec = quadratic_spec([1.0, 4.0])
    samples = collect_probes(spec, data, 1000, rng_seed=21)
    m_values = samples[:, 0]
    bracket_ok = bool(np.all(m_values >= 1.0 - 1e-9) and np.all(m_values <= 4.0 + 1e-9))
    mu_hat, l_hat = float(m_values.min()), float(m_values.max())

    ident = quadratic_spec([1.0, 1.0, 1.0])
    ident_samples = collect_probes(ident, data, 1000, rng_seed=22)
    ident_m = ident_samples[:, 0]
    ident_ok = bool(np.all(np.abs(ident_m - 1.0) <= 1e-9))

    elapsed = time.perf_counter() - start
    ok = bracket_ok and ident_ok and 1.0 - 1e-9 <= mu_hat <= l_hat <= 4.0 + 1e-9 and elapsed < 10.0
    report("02 quadratic probe oracle", ok,
           f"m in [{mu_hat:.9f}, {l_hat:.9f}] for diag(1,4); identity within 1e-9; {elapsed:.1f}s")
    assert bracket_ok
    assert 1.0 - 1e-9 <= mu_hat <= l_hat <= 4.0 + 1e-9
    assert ident_ok
    assert elapsed < 10.0


def test_03_bound_algebra():
    start = time.perf_counter()
    rng = spawn_rng("acceptance-bound", 0)
    t1_ok = product_ok = True
    for _ in range(20):
        mu = float(rng.uniform(0.01, 5.0))
        p = BoundParams(
            mu=mu,
            L=mu + float(rng.uniform(0.0, 10.0)),
            G=float(rng.uniform(0.0, 5.0)),
            init_distance=float(rng.uniform(0.0, 10.0)),
        )
        closed_form = 16.0 * p.G ** 2 / p.mu + 4.0 * p.L * p.init_distance
        if closed_form > 0 and not math.isclose(
            convergence_bound(1, p), closed_form, rel_tol=1e-12
        ):
            t1_ok = False
        ratio = 8.0 * p.L / p.mu
        reference = convergence_bound(1, p) * ratio
        for t in (1, 2, 3, 10, 100, 1000, 9999, 10_000):
            value = convergence_bound(t, p) * (t - 1 + ratio)
            if reference > 0 and not math.isclose(value, reference, rel_tol=1e-9):
                product_ok = False

    p = BoundParams(mu=0.3, L=1.7, G=0.9, init_distance=2.0)
    vals = [convergence_bound(t, p) for t in range(1, 501)]
    decreasing_ok = all(b < a for a, b in zip(vals, vals[1:]))

    elapsed = time.perf_counter() - start
    ok = t1_ok and product_ok and decreasing_ok and elapsed < 1.0
    report("03 bound algebra", ok,
           f"t=1 closed form 1e-12, product constant 1e-9, curve decreasing; {elapsed:.2f}s")
    assert t1_ok and product_ok and decreasing_ok
    assert elapsed < 1.0


def test_04_single_node_run_equals_centralized_sgd():
    start = time.perf_counter()
    data = gen_synthetic(
        SyntheticSpec(num_classes=3, feature_dim=6, samples_per_class=100), seed=3
    )
    model = softmax_spec(6, 3, l2=0.01)
    n_train = len(data) - round(0.1 * len(data))
    cfg = ScenarioConfig(
        n_nodes=1, samples_per_node=n_train, rounds=5, model=model,
        lr=0.1, batch_size=16, n_probes=4, seed=17,
    )
    run = run_federated(cfg, data)

    _, nodes = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
    w = init_params(model, derive_seed(cfg.seed, "init"))
    for t in range(1, 6):
        seed = derive_seed(derive_seed(cfg.seed, "round", t, 0), 0)
        order = spawn_rng("sgd", seed).permutation(len(nodes[0]))
        w = sgd_epoch_traced(model, w[None], nodes[0], cfg.lr, cfg.batch_size, order[None])[0][0]
    gap = float(np.abs(w - run.trained.final_params).max())
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-9 and elapsed < 30.0
    report("04 federated degeneracy", ok,
           f"max per-coordinate gap {gap:.3g} after 5 rounds; {elapsed:.1f}s")
    assert gap <= 1e-9
    assert elapsed < 30.0


def test_05_missing_class_trains_easier_tests_worse(paired_runs):
    runs, build_time = paired_runs
    wins = 0
    for seed in SEEDS:
        base, miss = runs[seed]
        train_ok = miss.trained.train_loss[-1] < base.trained.train_loss[-1]
        test_ok = miss.trained.test_loss[-1] > base.trained.test_loss[-1]
        wins += train_ok and test_ok
    ok = wins >= 4 and build_time < 300.0
    report("05 missing-class divergence", ok,
           f"lower train AND higher test loss in {wins}/5 seeds; runs built in {build_time:.1f}s")
    assert wins >= 4
    assert build_time < 300.0


def test_06_bound_dominates_observed_loss_gap(paired_runs):
    runs, _ = paired_runs
    worst_margin = math.inf
    ok = True
    for seed in SEEDS:
        for run in runs[seed]:
            final_bound = run.bound_value[-1]
            gap = run.trained.train_loss[-1] - min(run.trained.train_loss)
            if not final_bound >= 10.0 * gap:
                ok = False
            if gap > 0:
                worst_margin = min(worst_margin, final_bound / gap)
    detail = "bound >= 10x gap on all 10 runs"
    if worst_margin < math.inf:
        detail += f", tightest factor {worst_margin:.1f}"
    report("06 bound looseness", ok, detail)
    assert ok


def test_07_probe_gradients_dominate_training_gradients(paired_runs):
    runs, _ = paired_runs
    wins = 0
    ratios = []
    for seed in SEEDS:
        base, _ = runs[seed]
        probe_median = float(np.median(base.probed.samples[:, :, 1]))
        training_median = float(np.median(base.trained.training_g))
        ratios.append(probe_median / training_median)
        wins += probe_median > training_median
    ok = wins >= 4
    report("07 probe-vs-training gradient medians", ok,
           f"probe median larger in {wins}/5 seeds, median ratios "
           + ",".join(f"{r:.2f}" for r in ratios))
    assert wins >= 4


def test_08_constants_correlate_with_usefulness(hetero_runs):
    runs, build_time = hetero_runs
    spearman_l, spearman_g = [], []
    for seed in SEEDS:
        run, _, _ = runs[seed]
        usefulness = usefulness_from_rounds(run.trained.usefulness)
        l_values = np.array([run.probed.node_constants[i].L for i in range(8)])
        g_values = np.array([run.probed.node_constants[i].G for i in range(8)])
        spearman_l.append(correlate(l_values, usefulness)[1])
        spearman_g.append(correlate(g_values, usefulness)[1])
    mean_l, mean_g = float(np.mean(spearman_l)), float(np.mean(spearman_g))
    ok = mean_l >= 0.3 and mean_g > 0.0 and build_time < 600.0
    report("08 usefulness correlation", ok,
           f"mean Spearman L={mean_l:+.3f} (threshold 0.3), G={mean_g:+.3f} (sign); "
           f"runs built in {build_time:.1f}s")
    assert mean_l >= 0.3
    assert mean_g > 0.0
    assert build_time < 600.0


def test_09_top_half_by_l_beats_bottom_half(hetero_runs):
    runs, _ = hetero_runs
    start = time.perf_counter()
    top_losses, bottom_losses = [], []
    for seed in SEEDS:
        run, test_data, nodes = runs[seed]
        estimates = run.probed.node_constants
        k = math.ceil(len(estimates) / 2)
        top = select_nodes(estimates, k, "top-L")
        bottom = set(range(len(estimates))) - top
        finals = {}
        for name, chosen in (("top", top), ("bottom", bottom)):
            cfg = ScenarioConfig(
                n_nodes=len(chosen), samples_per_node=150, rounds=20, model=HETERO_MODEL,
                lr=0.05, batch_size=32, n_probes=4, seed=seed,
            )
            subset = [nodes[i] for i in sorted(chosen)]
            setup = Setup(cfg, test_data, tuple(subset), probe_phase(cfg, subset))
            subset_run = run_federated_partitioned(setup)
            finals[name] = subset_run.trained.test_loss[-1]
        top_losses.append(finals["top"])
        bottom_losses.append(finals["bottom"])
    mean_top, mean_bottom = float(np.mean(top_losses)), float(np.mean(bottom_losses))
    elapsed = time.perf_counter() - start
    ok = mean_top <= mean_bottom and elapsed < 600.0
    report("09 selection payoff", ok,
           f"mean final test loss top {mean_top:.4f} <= bottom {mean_bottom:.4f}; {elapsed:.1f}s")
    assert mean_top <= mean_bottom
    assert elapsed < 600.0


def test_10_unit_example_suite():
    start = time.perf_counter()

    pearson, spearman = correlate([1, 2, 3], [2, 4, 6])
    assert pearson == pytest.approx(1.0, abs=1e-12)
    assert spearman == pytest.approx(1.0, abs=1e-12)
    pearson, spearman = correlate([1, 2, 3], [1, 8, 27])
    assert pearson < 1.0 and spearman == pytest.approx(1.0, abs=1e-12)
    pearson, spearman = correlate([1, 2, 3], [-1, -2, -3])
    assert pearson == pytest.approx(-1.0, abs=1e-12)
    assert spearman == pytest.approx(-1.0, abs=1e-12)

    _, fractions = _cdf_arrays(np.array([1.0, 2.0, 3.0]))
    assert fractions[1] == pytest.approx(2 / 3)
    assert _cdf_arrays(np.array([7.0, 7.0]))[1].tolist() == [1.0]
    shuffled = _cdf_arrays(np.array([3.0, 1.0, 2.0]))
    ordered = _cdf_arrays(np.array([1.0, 2.0, 3.0]))
    assert all(np.array_equal(a, b) for a, b in zip(shuffled, ordered))

    from fedbound.probe import ConstantsEstimate

    # select_nodes gives positions; ids maps them to these node ids.
    ids = (1, 2)
    consts = (ConstantsEstimate(0.1, 0.5, 1.0, 2), ConstantsEstimate(0.1, 2.0, 1.0, 2))
    assert {ids[i] for i in select_nodes(consts, 1, "top-L")} == {2}
    assert {ids[i] for i in select_nodes(consts, 2, "top-L")} == {1, 2}
    ids = (4, 1, 9)
    tied = (ConstantsEstimate(0.1, 1.0, 1.0, 2),) * len(ids)
    assert {ids[i] for i in select_nodes(tied, 2, "top-L")} == {1, 4}

    records = usefulness_from_rounds([[0.5], [0.3]])
    assert records[0] == pytest.approx(0.4)
    single = usefulness_from_rounds([[0.7]])
    assert single[0] == pytest.approx(0.7)
    frozen_run = run_federated(
        ScenarioConfig(
            n_nodes=2, samples_per_node=20, rounds=2,
            model=softmax_spec(4, 3), lr=0.0, batch_size=20, n_probes=2, seed=1,
        ),
        gen_synthetic(SyntheticSpec(num_classes=3, feature_dim=4, samples_per_class=30), 1),
    )
    assert all(u == 0.0 for u in usefulness_from_rounds(frozen_run.trained.usefulness))

    w = np.array([1.0, -2.0])
    np.testing.assert_array_equal(fedavg([w, w.copy()]), w)
    np.testing.assert_array_equal(
        fedavg([np.array([0.0, 2.0]), np.array([2.0, 0.0])]), np.array([1.0, 1.0])
    )
    models = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    np.testing.assert_allclose(fedavg(models[::-1]), fedavg(models), atol=1e-15)

    data = Dataset(np.full((1, 2), 0.5), np.zeros(1, dtype=np.int64), 1)
    ident = quadratic_spec([1.0, 1.0])
    assert compute_m(ident, np.array([1.0, 0.5]), np.array([0.0, -0.5]), data) == pytest.approx(1.0)
    diag13 = quadratic_spec([1.0, 3.0])
    v = np.array([1.0, 1.0])
    assert compute_m(diag13, 2 * v, v, data) == pytest.approx(2.0)
    assert compute_g(ident, np.array([3.0, 4.0]), data) == pytest.approx(5.0)
    rng = spawn_rng("acceptance-unit", 0)
    sdata = Dataset(rng.uniform(0, 1, (10, 3)), rng.integers(0, 2, 10), 2)
    perm = rng.permutation(10)
    shuffled = Dataset(sdata.features[perm], sdata.labels[perm], 2)
    spec = softmax_spec(3, 2)
    point = init_params(spec, 0)
    assert compute_g(spec, point, sdata) == pytest.approx(compute_g(spec, point, shuffled), rel=1e-12)

    elapsed = time.perf_counter() - start
    report("10 unit example suite", elapsed < 5.0, f"all hand-checked examples exact; {elapsed:.2f}s")
    assert elapsed < 5.0


def test_11_cli_runs_are_byte_identical(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "scenario.name = det\n"
        "scenario.n_nodes = 3\n"
        "scenario.samples_per_node = 40\n"
        "scenario.rounds = 3\n"
        "scenario.lr = 0.1\n"
        "scenario.batch_size = 20\n"
        "scenario.seed = 5\n"
        "probe.n_probes = 5\n"
        "model.kind = softmax\n"
        "model.l2 = 0.01\n"
        "data.source = synthetic\n"
        "data.num_classes = 3\n"
        "data.feature_dim = 5\n"
        "data.samples_per_class = 60\n"
        "repeat_seeds = 1,2\n"
    )
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    ok = trees[0] == trees[1]
    report("11 determinism", ok, f"{len(trees[0])} files byte-identical across two runs")
    assert ok

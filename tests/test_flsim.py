import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound import flsim, model, probe
from fedbound.bound import estimate_initial_distance
from fedbound.config import ExperimentConfig, echo_lines, load_config, preflight
from fedbound.data import SyntheticSpec, gen_synthetic
from fedbound.flsim import (
    EmptyTestSplitError,
    ScenarioConfig,
    Setup,
    fedavg,
    local_round,
    partition_dataset,
    probe_phase,
    run_federated,
    run_federated_partitioned,
    save_run,
    shuffle_states,
    training_phase,
)
from fedbound.model import (
    Dataset,
    init_params,
    loss,
    mlp_spec,
    sgd_epoch_traced,
    softmax_spec,
)
from fedbound.probe import ConstantsEstimate
from fedbound.rng import derive_seed, spawn_rng
from test_probe import draw_probe_pair


EPOCHS_NOTE = "bound values assume one local epoch per round; this config uses {}"
MU_NOTE = "probed mu is not positive; bound values are undefined for this run"


def round_states(seeds, epochs=1):
    """The shuffle generators of one round whose node i trains with ``seeds[i]``."""
    return shuffle_states([seeds], epochs)[0]


def shuffle(seed, n):
    """The row order a run's SGD epoch takes from ``seed``."""
    return spawn_rng("sgd", seed).permutation(n)


def node_views(rows, n_nodes):
    """Node i's rows of a node-major block, as views."""
    n = len(rows) // n_nodes
    return [rows.subset(slice(i * n, (i + 1) * n)) for i in range(n_nodes)]


def synthetic_spec(**kwargs):
    defaults = dict(
        num_classes=3, feature_dim=4, samples_per_class=120,
        separation=0.6, noise_sigma=0.15,
    )
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


def scenario(**kwargs):
    defaults = dict(
        n_nodes=2,
        samples_per_node=40,
        rounds=3,
        model=softmax_spec(4, 3, l2=0.01),
        lr=0.1,
        batch_size=20,
        test_fraction=0.1,
        n_probes=4,
        seed=11,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def echo(cfg):
    """The config.txt lines of a run of ``cfg`` on the ``synthetic_spec()`` pool."""
    return echo_lines(ExperimentConfig(cfg, synthetic_spec(), Path("runs"), (cfg.seed,)))


class TestPartition:
    def test_counts_and_disjointness(self):
        data = gen_synthetic(synthetic_spec(), seed=0)
        cfg = scenario(n_nodes=5, samples_per_node=30)
        test, rows = partition_dataset(data, cfg, rng_seed=1)
        assert len(test) == round(0.1 * len(data))
        assert len(rows) == 5 * 30
        stacked = np.vstack([rows.features, test.features])
        assert len(np.unique(stacked, axis=0)) == len(stacked)

    def test_missing_class_filtered_from_nodes_not_test(self):
        data = gen_synthetic(synthetic_spec(), seed=1)
        cfg = scenario(n_nodes=3, samples_per_node=40, missing_classes=frozenset({2}))
        test, rows = partition_dataset(data, cfg, rng_seed=2)
        assert not np.any(rows.labels == 2)
        assert np.any(test.labels == 2)

    def test_single_node_owns_everything(self):
        data = gen_synthetic(synthetic_spec(samples_per_class=20), seed=2)
        n_train = len(data) - round(0.1 * len(data))
        cfg = scenario(n_nodes=1, samples_per_node=n_train)
        _, rows = partition_dataset(data, cfg, rng_seed=0)
        assert len(rows) == n_train

    def test_insufficient_data_rejected(self):
        data = gen_synthetic(synthetic_spec(samples_per_class=10), seed=3)
        cfg = scenario(n_nodes=4, samples_per_node=100)
        with pytest.raises(ValueError, match="insufficient"):
            partition_dataset(data, cfg, rng_seed=0)

    def test_empty_test_split_rejected(self):
        # 0.001 of 360 rows rounds to no held-out row; 0.002 to one.
        data = gen_synthetic(synthetic_spec(), seed=3)
        cfg = scenario(test_fraction=0.001)
        message = "^test_fraction 0.001 leaves the test split empty$"
        with pytest.raises(EmptyTestSplitError, match=message):
            partition_dataset(data, cfg, rng_seed=0)
        test, _ = partition_dataset(data, replace(cfg, test_fraction=0.002), rng_seed=0)
        assert len(test) == 1

    def test_deterministic_given_seed(self):
        data = gen_synthetic(synthetic_spec(), seed=4)
        cfg = scenario()
        t1, r1 = partition_dataset(data, cfg, rng_seed=9)
        t2, r2 = partition_dataset(data, cfg, rng_seed=9)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(r1.features, r2.features)


class TestFedavg:
    def test_identical_inputs_unchanged(self):
        w = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(fedavg(np.stack([w, w, w])), w)

    def test_two_vector_mean(self):
        out = fedavg(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out, np.array([1.0, 1.0]))

    @given(st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, rows):
        models = np.array(rows)
        forward = fedavg(models)
        np.testing.assert_allclose(fedavg(models[::-1]), forward, atol=1e-12)

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4), min_size=1, max_size=12
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariant_to_node_order(self, rows, random):
        models = np.array(rows)
        order = list(range(len(models)))
        random.shuffle(order)
        forward = fedavg(models)
        shuffled = fedavg(models[order])
        # Only the summation order changes: each mean is within (n - 1) ulps
        # of the magnitude of the largest entry of the exact mean.
        scale = np.abs(models).max(axis=0)
        tol = 2 * len(models) * np.finfo(float).eps * scale
        assert np.all(np.abs(shuffled - forward) <= tol)

    def test_accepts_a_stack(self):
        stack = np.array([[1.0, 4.0], [3.0, 0.0]])
        np.testing.assert_array_equal(fedavg(stack), fedavg(list(stack)))

    def test_empty_rejected(self):
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(ValueError):
                fedavg(empty)

    def test_dim_mismatch_rejected(self):
        for not_a_stack in ([np.zeros(2), np.zeros(3)], np.zeros(3), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError):
                fedavg(not_a_stack)


class TestLocalRound:
    def make_node(self, cfg, seed=0):
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=seed), cfg, 5)
        w = init_params(cfg.model, 1)
        return node_views(rows, cfg.n_nodes)[0], test, w

    def test_lr_zero_is_noop(self):
        cfg = scenario(lr=0.0)
        node, test, w = self.make_node(cfg)
        trained, norms = local_round(node, w, cfg, round_states([3]))
        np.testing.assert_array_equal(trained, w[None])
        assert norms.shape == (1, 2)  # still one norm per step

    def test_training_that_helps_gives_positive_delta(self):
        cfg = scenario(lr=0.2, batch_size=40)
        node, test, w = self.make_node(cfg)
        trained, _ = local_round(node, w, cfg, round_states([3]))
        assert loss(cfg.model, w[None], test)[0] - loss(cfg.model, trained[:1], test)[0] > 0.0

    def test_deterministic(self):
        cfg = scenario()
        node, test, w = self.make_node(cfg)
        a = local_round(node, w, cfg, round_states([7]))
        b = local_round(node, w, cfg, round_states([7]))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_multiple_local_epochs_extend_trace(self):
        cfg = scenario(local_epochs_per_round=3, batch_size=40)
        node, test, w = self.make_node(cfg)
        rows = Dataset.concat([node] * cfg.n_nodes)
        run = run_federated_partitioned(Setup(cfg, test, rows, probe_phase(cfg, rows)))
        assert run.bound_notes == (EPOCHS_NOTE.format(3),)
        _, norms = local_round(node, w, cfg, round_states([1], epochs=3))
        assert norms.shape == (1, 3)

    def test_lockstep_round_equals_one_node_at_a_time(self):
        # Four nodes train as one stack, the last batch short; node order is kept.
        cfg = scenario(n_nodes=4, samples_per_node=25, batch_size=10)
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=3), cfg, 5)
        w = init_params(cfg.model, 2)
        trained, norms = local_round(rows, w, cfg, round_states([11, 12, 13, 14]))
        for i, node in enumerate(node_views(rows, cfg.n_nodes)):
            one, one_norms = local_round(node, w, cfg, round_states([11 + i]))
            np.testing.assert_array_equal(trained[i], one[0])
            np.testing.assert_array_equal(norms[i], one_norms[0])


class TestRunFederated:
    def test_round_count_and_record_shape(self):
        cfg = scenario(rounds=4)
        run = run_federated(cfg, gen_synthetic(synthetic_spec(), seed=5))
        trained = run.trained
        assert trained.train_loss.shape == trained.test_loss.shape == run.bound_value.shape == (4,)
        assert trained.usefulness.shape == (4, 2)
        assert trained.training_g.shape == (4, 2, 2)
        assert (run.bound_value > 0).all()
        assert run.probed.global_constants.n_probes == cfg.n_probes * cfg.n_nodes
        assert run.probed.samples.shape == (cfg.n_nodes, cfg.n_probes, 2)
        assert run.probed.samples.dtype == np.float64
        assert run.bound_notes == ()

    def test_bound_values_strictly_decreasing(self):
        run = run_federated(scenario(rounds=6), gen_synthetic(synthetic_spec(), seed=6))
        bounds = run.bound_value.tolist()
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_single_node_matches_centralized_sgd(self):
        data = gen_synthetic(synthetic_spec(), seed=7)
        n_train = len(data) - round(0.1 * len(data))
        cfg = scenario(n_nodes=1, samples_per_node=n_train, rounds=5, batch_size=16)
        run = run_federated(cfg, data)

        _, rows = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
        w = init_params(cfg.model, derive_seed(cfg.seed, "init"))
        for t in range(1, 6):
            seed = derive_seed(derive_seed(cfg.seed, "round", t, 0), 0)
            order = shuffle(seed, len(rows))[None]
            w = sgd_epoch_traced(cfg.model, w[None], rows, cfg.lr, cfg.batch_size, order)[0][0]
        assert np.abs(w - run.trained.final_params).max() <= 1e-9

    def test_convex_single_node_full_batch_loss_nonincreasing(self):
        data = gen_synthetic(synthetic_spec(), seed=8)
        n_train = len(data) - round(0.1 * len(data))
        cfg = scenario(
            n_nodes=1, samples_per_node=n_train, rounds=6, lr=0.05, batch_size=n_train
        )
        run = run_federated(cfg, data)
        train = run.trained.train_loss.tolist()
        assert all(b <= a + 1e-12 for a, b in zip(train, train[1:]))

    def test_bit_reproducible(self):
        data = gen_synthetic(synthetic_spec(), seed=9)
        cfg = scenario(rounds=3)
        a = run_federated(cfg, data)
        b = run_federated(cfg, data)
        np.testing.assert_array_equal(a.trained.final_params, b.trained.final_params)
        np.testing.assert_array_equal(a.bound_value, b.bound_value)
        for name in ("train_loss", "test_loss", "usefulness", "training_g"):
            np.testing.assert_array_equal(getattr(a.trained, name), getattr(b.trained, name))

    def test_final_params_are_mean_of_last_round_locals(self):
        data = gen_synthetic(synthetic_spec(), seed=10)
        cfg = scenario(n_nodes=3, samples_per_node=30, rounds=2)
        run = run_federated(cfg, data)
        test, rows = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))

        # Replay: after round 1 every node starts from the same broadcast model.
        w = init_params(cfg.model, derive_seed(cfg.seed, "init"))
        for t in (1, 2):
            locals_ = []
            for i, node in enumerate(node_views(rows, cfg.n_nodes)):
                states = round_states([derive_seed(cfg.seed, "round", t, i)])
                trained, _ = local_round(node, w, cfg, states)
                locals_.append(trained[0])
                # The engine reuses the previous round's test loss as this
                # round's starting loss; a fresh evaluation must agree exactly.
                delta = loss(cfg.model, w[None], test)[0] - loss(cfg.model, trained[:1], test)[0]
                assert delta == run.trained.usefulness[t - 1, i]
            w = fedavg(locals_)
        np.testing.assert_array_equal(w, run.trained.final_params)

    @pytest.mark.parametrize("model", [softmax_spec(4, 3, l2=0.01), mlp_spec(4, 3, 5, l2=0.0)])
    def test_two_epochs_equal_a_per_node_replay(self, model):
        cfg = scenario(n_nodes=3, rounds=3, batch_size=15, local_epochs_per_round=2, model=model)
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=17), cfg, 5)
        setup = Setup(cfg, test, rows, probe_phase(cfg, rows))
        datasets = node_views(rows, cfg.n_nodes)
        run = run_federated_partitioned(setup)
        epochs = EPOCHS_NOTE.format(2)
        mu = run.probed.global_constants.mu
        assert run.bound_notes == ((epochs,) if mu > 0 else (epochs, MU_NOTE))

        # Replay one node at a time, each a one-row stack.
        w = init_params(cfg.model, derive_seed(cfg.seed, "init"))
        before = loss(cfg.model, w[None], test)[0]
        for t in range(1, cfg.rounds + 1):
            locals_, traces = [], []
            for i, data in enumerate(datasets):
                wi, trace = w, []
                for epoch in range(cfg.local_epochs_per_round):
                    seed = derive_seed(derive_seed(cfg.seed, "round", t, i), epoch)
                    order = shuffle(seed, len(data))[None]
                    stack, norms = sgd_epoch_traced(
                        cfg.model, wi[None], data, cfg.lr, cfg.batch_size, order
                    )
                    wi = stack[0]
                    trace.append(norms[:, 0])
                locals_.append(wi)
                traces.append(np.concatenate(trace))
                assert run.trained.usefulness[t - 1, i] == before - loss(cfg.model, wi[None], test)[0]
            w = fedavg(locals_)
            before = loss(cfg.model, w[None], test)[0]
            np.testing.assert_array_equal(run.trained.training_g[t - 1], traces)
            assert run.trained.test_loss[t - 1] == before
            train_loss = float(np.mean([loss(cfg.model, w[None], d)[0] for d in datasets]))
            assert run.trained.train_loss[t - 1] == train_loss
        np.testing.assert_array_equal(run.trained.final_params, w)

    def test_bound_phase_notes_a_probed_mu_that_is_not_positive(self):
        cfg = scenario(rounds=3)
        values, notes = flsim.bound_phase(cfg, ConstantsEstimate(0.0, 1.0, 1.0, 2), 1.0)
        assert np.isnan(values).all() and len(values) == 3
        assert notes == (MU_NOTE,)

    # numpy overflows first in a round's test-set scoring; training_phase turns
    # its floating-point errors off, so the run fails on its own check even
    # where a RuntimeWarning is an error.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_fails_on_its_own_check_whatever_the_warning_filter(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "five_nodes.cfg")
        seed = cfg.repeat_seeds[0]
        diverging = replace(cfg.scenario, seed=seed, lr=1e10)
        with pytest.raises(
            ValueError, match="^round 8: node 0: SGD step 4 left non-finite parameters$"
        ):
            run_federated_partitioned(replace(preflight(cfg, seed), scenario=diverging))

    def test_unequal_node_sizes_rejected(self, monkeypatch):
        # 45 rows do not split into the config's 2 equal node blocks.
        cfg = scenario()
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=12), cfg, 5)
        block = rows.subset(np.arange(45))
        w1 = init_params(cfg.model, 1)
        message = "^45 rows do not split into 2 equal node blocks$"
        with pytest.raises(ValueError, match=message):
            training_phase(cfg, w1, test, block)
        # The engine is handed a probe result; its training phase rejects the block.
        equal = probe_phase(cfg, rows)
        with pytest.raises(ValueError, match=message):
            run_federated_partitioned(Setup(cfg, test, block, equal))
        probed = []
        monkeypatch.setattr(flsim, "collect_probes", lambda *args: probed.append(args))
        with pytest.raises(ValueError, match=message):
            probe_phase(cfg, block)
        # It fails before any node is probed.
        assert probed == []

    def test_wstar_proxy_is_best_train_loss_params(self):
        cfg = scenario(rounds=4)
        data = gen_synthetic(synthetic_spec(), seed=11)
        test, rows = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
        w1 = init_params(cfg.model, derive_seed(cfg.seed, "init"))
        trained = training_phase(cfg, w1, test, rows)
        init_distance = estimate_initial_distance(w1, trained.wstar_proxy)
        assert init_distance >= 0.0
        assert np.isfinite(init_distance)
        best = min(trained.train_loss)
        proxy_loss = float(
            np.mean([
                loss(cfg.model, trained.wstar_proxy[None], node)[0]
                for node in node_views(rows, cfg.n_nodes)
            ])
        )
        assert proxy_loss <= best + 1e-12

    def test_wstar_proxy_is_the_earliest_of_equal_losses(self):
        # With lr 0 every round averages two copies of w1 back to w1 exactly,
        # so every round ties w1's training loss and w1 itself must win.
        cfg = scenario(lr=0.0)
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=11), cfg, 5)
        w1 = init_params(cfg.model, 1)
        trained = training_phase(cfg, w1, test, rows)
        np.testing.assert_array_equal(trained.final_params, w1)
        assert len(set(trained.train_loss.tolist())) == 1
        assert trained.wstar_proxy is w1

    def test_invalid_round_count_rejected(self):
        with pytest.raises(ValueError):
            scenario(rounds=0)

    def test_unknown_g_formula_rejected_at_construction(self):
        # Before any probe runs, not when the probe phase reaches it.
        with pytest.raises(ValueError, match="^g_formula must be one of"):
            scenario(g_formula="bogus")

    def test_missing_class_outside_the_model_names_the_field(self):
        with pytest.raises(ValueError, match=r"^missing_classes \[-1, 3\] outside \[0, 3\)$"):
            scenario(missing_classes=frozenset({3, -1}))

    def test_single_round_yields_one_record(self):
        run = run_federated(scenario(rounds=1), gen_synthetic(synthetic_spec(), seed=14))
        assert len(run.trained.train_loss) == 1
        assert run.trained.usefulness.shape == (1, 2)

    def test_perturbation_sampler_probes_near_initial_weights(self):
        data = gen_synthetic(synthetic_spec(), seed=15)
        tight = run_federated(
            scenario(rounds=1, probe_sampler="perturb", perturb_sigma=1e-4), data
        )
        fresh = run_federated(scenario(rounds=1), data)
        # Jitter of 1e-4 around w1 pins every node's curvature samples into a
        # far narrower band than fresh init-distribution draws produce.
        tight_spread = tight.probed.global_constants.L - tight.probed.global_constants.mu
        fresh_spread = fresh.probed.global_constants.L - fresh.probed.global_constants.mu
        assert tight_spread < fresh_spread

    def test_loss_magnitude_g_formula(self):
        data = gen_synthetic(synthetic_spec(), seed=16)
        cfg = scenario(rounds=1, g_formula="loss-magnitude")
        run = run_federated(cfg, data)
        # Replay node 0's first probe pair: its g must be |F(v)|, not a norm.
        _, rows = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
        _, v = draw_probe_pair(cfg.model, derive_seed(derive_seed(cfg.seed, "probe", 0), 0))
        expected = abs(loss(cfg.model, v[None], node_views(rows, cfg.n_nodes)[0])[0])
        assert run.probed.samples[0, 0, 1] == pytest.approx(expected, rel=1e-12)


def spoiled(real, row, value):
    """``real`` with row ``row`` of every stacked result set to ``value``."""
    def patched(model, params, data):
        out = real(model, params, data)
        if np.ndim(params) == 2:
            out = out.copy()
            out[row] = value
        return out
    return patched


class TestRoundChecks:
    """Every run's per-round columns are checked: the training columns as
    training_phase returns them in a Trained, then the round count as FLRun."""

    @pytest.fixture(scope="class")
    def run(self):
        return run_federated(scenario(), gen_synthetic(synthetic_spec(), seed=5))

    @pytest.mark.parametrize(
        "column, message",
        [
            ("train_loss", "losses must be finite"),
            ("test_loss", "losses must be finite"),
            ("usefulness", "usefulness must be finite"),
        ],
    )
    def test_run_rejects_a_non_finite_column(self, run, column, message):
        values = getattr(run.trained, column).copy()
        values[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(run.trained, **{column: values})
        values[-1] = np.inf
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(run.trained, **{column: values})

    @pytest.mark.parametrize(
        "column", ["train_loss", "test_loss", "bound_value", "usefulness", "training_g"]
    )
    def test_run_rejects_a_column_of_another_round_count(self, run, column):
        # The bound is checked against the config, a training column against
        # the other training columns.
        if column == "bound_value":
            record, message = run, "run has 2 rounds, config says 3"
        else:
            record, message = run.trained, r"training columns differ in round count: \[2, 3\]"
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(record, **{column: getattr(record, column)[:-1]})

    def test_run_rejects_a_config_of_another_round_count(self, run):
        with pytest.raises(ValueError, match="^run has 3 rounds, config says 4$"):
            replace(run, config=replace(run.config, rounds=4))

    @pytest.mark.parametrize(
        "name, row, value, message",
        [
            # The last row of a round's test scores is its test loss.
            ("shared_data_loss", -1, np.nan, "losses must be finite"),
            # A stacked loss call is a training loss.
            ("loss", 0, np.nan, "losses must be finite"),
            # The other rows give the nodes' deltas.
            ("shared_data_loss", 0, np.inf, "usefulness must be finite"),
        ],
    )
    def test_training_phase_rejects_non_finite_rounds(
        self, monkeypatch, name, row, value, message
    ):
        cfg = scenario()
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=5), cfg, 5)
        monkeypatch.setattr(flsim, name, spoiled(getattr(flsim, name), row, value))
        with pytest.raises(ValueError, match=f"^{message}$"):
            training_phase(cfg, init_params(cfg.model, 1), test, rows)

    @given(
        t=st.integers(1, 3),
        epochs=st.integers(1, 2),
        epoch=st.integers(1, 2),
        node=st.integers(0, 2),
        step=st.integers(1, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_a_diverging_node_is_named_with_its_round_and_step(self, t, epochs, epoch, node, step):
        # Three nodes of 40 rows at batch 20: two SGD steps an epoch.
        epoch = min(epoch, epochs)
        cfg = scenario(n_nodes=3, local_epochs_per_round=epochs)
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=5), cfg, 5)
        poisoned_call = ((t - 1) * epochs + epoch - 1) * 2 + step
        calls, real = [], model.gradient

        def poisoning(spec, params, batch):
            calls.append(1)
            grad = real(spec, params, batch)
            if len(calls) == poisoned_call:
                grad = grad.copy()
                grad[node] = np.nan
            return grad

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "gradient", poisoning)
            with pytest.raises(ValueError) as failed:
                training_phase(cfg, init_params(cfg.model, 1), test, rows)
        where = f"round {t}: node {node}: " + (f"epoch {epoch}: " if epochs > 1 else "")
        assert str(failed.value) == f"{where}SGD step {step} left non-finite parameters"

    def test_training_phase_rejects_another_round_count(self, monkeypatch):
        cfg = scenario()
        test, rows = partition_dataset(gen_synthetic(synthetic_spec(), seed=5), cfg, 5)
        setup = Setup(cfg, test, rows, probe_phase(cfg, rows))
        real = flsim.shuffle_states
        monkeypatch.setattr(flsim, "shuffle_states", lambda *args: real(*args)[:-1])
        # training_phase gives a Trained of 2 rounds, which the engine's FLRun rejects.
        with pytest.raises(ValueError, match="^run has 2 rounds, config says 3$"):
            run_federated_partitioned(setup)


class TestSaveRun:
    def test_run_directory_contents(self, tmp_path):
        cfg = scenario(rounds=2)
        run = run_federated(cfg, gen_synthetic(synthetic_spec(), seed=12))
        save_run(run, tmp_path / "run", echo(cfg))
        rounds = (tmp_path / "run" / "rounds.csv").read_text().splitlines()
        assert rounds[0] == "t,train_loss,test_loss,bound_value"
        assert len(rounds) == 3
        usefulness = (tmp_path / "run" / "usefulness.csv").read_text().splitlines()
        assert usefulness[0] == "t,node_id,delta"
        assert len(usefulness) == 1 + 2 * 2
        gtrace = (tmp_path / "run" / "gtrace.csv").read_text().splitlines()
        assert gtrace[0] == "source,node_id,value"
        probe_rows = [l for l in gtrace[1:] if l.startswith("probe,")]
        training_rows = [l for l in gtrace[1:] if l.startswith("training,")]
        assert len(probe_rows) == cfg.n_probes * cfg.n_nodes
        assert len(training_rows) == run.trained.training_g.size
        constants = (tmp_path / "run" / "constants.csv").read_text().splitlines()
        assert constants[0] == "node_id,mu,L,G,n_probes"
        assert len(constants) == 1 + cfg.n_nodes + 1
        assert (tmp_path / "run" / "probes.csv").exists()
        config_echo = (tmp_path / "run" / "config.txt").read_text()
        assert "scenario.seed = 11" in config_echo

    def test_probes_csv_rows_ordered_by_node_then_index(self, tmp_path):
        run = run_federated(scenario(rounds=1), gen_synthetic(synthetic_spec(), seed=12))
        samples = np.array([[[0.1, 3.0], [0.2, 4.0]], [[0.5, 1.0], [0.7, 2.0]]])
        probed = replace(run.probed, samples=samples)
        save_run(replace(run, probed=probed), tmp_path, echo(scenario(rounds=1)))
        lines = (tmp_path / "probes.csv").read_text().splitlines()
        assert lines == [
            "node_id,probe_index,m_value,g_value",
            "0,0,0.1,3",
            "0,1,0.2,4",
            "1,0,0.5,1",
            "1,1,0.7,2",
        ]

    def test_save_is_deterministic(self, tmp_path):
        cfg = scenario(rounds=2)
        data = gen_synthetic(synthetic_spec(), seed=13)
        for name in ("a", "b"):
            save_run(run_federated(cfg, data), tmp_path / name, echo(cfg))
        for fname in ("rounds.csv", "usefulness.csv", "gtrace.csv", "constants.csv", "probes.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def _phase_arrays(outputs):
    """A phase's outputs as float64 arrays, each ConstantsEstimate as its fields."""
    arrays = []
    for out in outputs:
        if isinstance(out, ConstantsEstimate):
            out = astuple(out)
        elif isinstance(out, tuple):
            out = [astuple(estimate) for estimate in out]
        arrays.append(np.asarray(out, dtype=np.float64))
    return arrays


def test_probe_and_training_phases_in_two_threads_match_serial_runs():
    # Each thread has its own kernel workspace, so two seeds' phases can run
    # at once, their kernel calls on the same shapes, and still give the
    # serial bits.
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg")
    seeds = (1, 2, 3)

    def phases(seed):
        seeded = replace(cfg.scenario, seed=seed)
        test, rows = flsim.node_datasets(cfg.dataset, seeded)
        probed = probe_phase(seeded, rows)
        fields = (probed.w1, probed.samples, probed.node_constants, probed.global_constants)
        trained = training_phase(seeded, probed.w1, test, rows)
        return fields, astuple(trained)

    serial = [phases(seed) for seed in seeds]
    # A short switch interval interleaves the two threads' kernel calls.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(phases, seed) for seed in seeds]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, got, expected in zip(seeds, threaded, serial):
        for a, b in zip(got, expected):
            for x, y in zip(_phase_arrays(a), _phase_arrays(b), strict=True):
                np.testing.assert_array_equal(x, y, err_msg=f"seed {seed}")


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_repeated_probe_phase_takes_almost_no_page_faults():
    # The kernel's class-sized intermediates live in a reused workspace per
    # thread and shape. Allocated fresh per call, they went through mmap and
    # munmap on every hetero-eight probe stack: about 4,000 minor faults per
    # phase.
    import resource

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg")
    scenario = replace(cfg.scenario, seed=1)
    _, rows = flsim.node_datasets(cfg.dataset, scenario)
    probe_phase(scenario, rows)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    probe_phase(scenario, rows)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_each_phase_makes_its_pinned_kernel_calls(monkeypatch):
    # hetero_eight_nodes seed 1. The probe phase makes two calls a node, one
    # with a gradient, over its 80 probes. Training makes one gradient call a
    # SGD step (5 a round) over the 8-node stack, and two loss calls a round:
    # the 8 trained rows with their average on the test set, and the average
    # on each node; w1 is scored the same two ways before the first round.
    # Work that a change adds fails here without any timing.
    calls = []

    def spying(kernel):
        def spy(spec, W, feats, labels, want_grad, want_loss=True):
            calls.append((want_grad, len(W)))
            return kernel(spec, W, feats, labels, want_grad, want_loss)

        return spy

    # Both bindings of the one kernel: the model's and the probe's.
    for module in (model, probe):
        monkeypatch.setattr(module, "_loss_and_grad_stacked", spying(module._loss_and_grad_stacked))
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg")
    setup = preflight(cfg, 1)
    probe_calls = calls.copy()
    calls.clear()
    run_federated_partitioned(setup)

    def work(phase_calls):
        """Calls, calls with a gradient and stack rows."""
        return len(phase_calls), sum(g for g, _ in phase_calls), sum(n for _, n in phase_calls)

    assert work(probe_calls) == (16, 8, 16 * 80)
    assert work(calls) == (177, 125, 125 * 8 + (1 + 8) + 25 * (9 + 8))


@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_round_scores_do_not_depend_on_the_stack_height(monkeypatch, kind):
    # training_phase scores the test set and the nodes' blocks in stacks of
    # at most probe_stack_size rows. A row's loss does not depend on its
    # stack, so stacks of 3 (9 test rows in 3, 8 nodes in 3, 3 and 2) give
    # hetero_eight_nodes seed 1's one-stack results bit for bit.
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg")
    spec = cfg.scenario.model
    if kind == "mlp":
        spec = mlp_spec(spec.feature_dim, spec.num_classes, 8, l2=spec.l2_coefficient)
    scenario = replace(cfg.scenario, seed=1, model=spec)
    test, rows = flsim.node_datasets(cfg.dataset, scenario)
    w1 = flsim.initial_params(scenario)
    expected = training_phase(scenario, w1, test, rows)
    monkeypatch.setattr(flsim, "probe_stack_size", lambda spec, data: 3)
    got = training_phase(scenario, w1, test, rows)
    for x, y in zip(_phase_arrays(astuple(got)), _phase_arrays(astuple(expected)), strict=True):
        assert x.tobytes() == y.tobytes()

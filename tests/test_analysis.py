import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.analysis import (
    SELECTION_POLICIES,
    ReportInputs,
    _average_ranks,
    _cdf_arrays,
    correlate,
    correlation_rows,
    report_inputs_from_dir,
    report_inputs_from_run,
    select_nodes,
    usefulness_from_rounds,
    write_reports,
)
from fedbound.cli import main
from fedbound.config import ExperimentConfig, echo_lines
from fedbound.data import SyntheticSpec, gen_synthetic
from fedbound.flsim import FLRun, ScenarioConfig, run_federated, save_run
from fedbound.model import softmax_spec
from fedbound.probe import ConstantsEstimate
from fedbound.rng import spawn_rng


def run_with_deltas(per_round_deltas):
    """A run whose round t gives node i the delta ``per_round_deltas[t - 1][i]``."""
    deltas = np.array(per_round_deltas, dtype=np.float64)
    n_rounds, n_nodes = deltas.shape
    cfg = ScenarioConfig(
        n_nodes=n_nodes, samples_per_node=1, rounds=n_rounds, model=softmax_spec(4, 3), n_probes=2
    )
    const = ConstantsEstimate(0.5, 1.0, 1.0, 2)
    w = np.zeros(3)
    return FLRun(
        config=cfg,
        train_loss=np.ones(n_rounds),
        test_loss=np.ones(n_rounds),
        bound_value=np.ones(n_rounds),
        usefulness=deltas,
        training_g=np.empty((n_rounds, n_nodes, 0)),
        final_params=w,
        global_constants=const,
        node_constants=(const,) * n_nodes,
        probe_samples=np.empty((n_nodes, 0, 2)),
    )


class TestNodeUsefulness:
    def test_mean_of_round_deltas(self):
        run = run_with_deltas([[0.5], [0.3]])
        usefulness = usefulness_from_rounds(run.usefulness)
        assert usefulness.shape == (1,)
        assert usefulness[0] == pytest.approx(0.4)

    def test_single_round_is_identity(self):
        run = run_with_deltas([[0.7, -0.2]])
        np.testing.assert_array_equal(usefulness_from_rounds(run.usefulness), [0.7, -0.2])

    def test_zero_lr_run_gives_all_zero(self):
        data = gen_synthetic(
            SyntheticSpec(num_classes=3, feature_dim=4, samples_per_class=60), seed=0
        )
        cfg = ScenarioConfig(
            n_nodes=2, samples_per_node=30, rounds=2, model=softmax_spec(4, 3),
            lr=0.0, batch_size=30, n_probes=2, seed=1,
        )
        run = run_federated(cfg, data)
        np.testing.assert_array_equal(usefulness_from_rounds(run.usefulness), [0.0, 0.0])

    def test_concatenation_linearity(self):
        first = run_with_deltas([[0.4], [0.8]])
        second = run_with_deltas([[-0.2], [0.6]])
        merged = usefulness_from_rounds(np.concatenate((first.usefulness, second.usefulness)))
        a = usefulness_from_rounds(first.usefulness)[0]
        b = usefulness_from_rounds(second.usefulness)[0]
        assert merged[0] == pytest.approx((a + b) / 2)

    def test_empty_rounds_rejected(self):
        with pytest.raises(ValueError):
            usefulness_from_rounds(())

    def test_non_finite_delta_rejected(self):
        with pytest.raises(ValueError, match="usefulness must be finite"):
            run_with_deltas([[0.1, float("inf")]])

    @given(
        n_rounds=st.integers(1, 200),
        n_nodes=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_mean_sums_its_nodes_deltas_in_round_order(self, n_rounds, n_nodes, seed):
        # Bit for bit the mean of each node's deltas as one list in round
        # order; numpy sums pairwise from 8 terms, blocked from 128, so an
        # order other than one contiguous row per node moves the last bit.
        rng = np.random.default_rng(seed)
        deltas = rng.standard_normal((n_rounds, n_nodes)) * 10.0 ** rng.integers(
            -6, 7, (n_rounds, n_nodes)
        )
        run = run_with_deltas(deltas.tolist())
        expected = [
            float(np.mean([row[i] for row in run.usefulness])) for i in range(n_nodes)
        ]
        assert usefulness_from_rounds(run.usefulness).tolist() == expected


class TestCorrelate:
    def test_perfect_linear(self):
        pearson, spearman = correlate([1, 2, 3], [2, 4, 6])
        assert pearson == pytest.approx(1.0, abs=1e-12)
        assert spearman == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonlinear(self):
        pearson, spearman = correlate([1, 2, 3], [1, 8, 27])
        assert pearson < 1.0
        assert spearman == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        x = [1.0, 2.0, 5.0, 9.0]
        pearson, spearman = correlate(x, [-v for v in x])
        assert pearson == pytest.approx(-1.0, abs=1e-12)
        assert spearman == pytest.approx(-1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlate([1, 2, 3], [1, 2])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            correlate([1, 2], [3, 4])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            correlate([1, 1, 1], [1, 2, 3])

    def test_equal_values_with_rounding_sized_std_rejected(self):
        # np.std of seven copies of this value is 1.8e-15, not 0.
        with pytest.raises(ValueError):
            correlate([1, 2, 3, 4, 5, 6, 7], [9.127555772777217] * 7)

    @pytest.mark.parametrize(
        "x, y, ranks_x, spearman",
        [
            # ranks (1, 2.5, 2.5, 4) vs (1, 2, 3, 4): 4.5 / sqrt(4.5 * 5)
            ([1, 2, 2, 3], [1, 2, 3, 4], [1, 2.5, 2.5, 4], math.sqrt(0.9)),
            # ranks (3, 3, 3, 1) vs (1, 2, 3, 4): -3 / sqrt(3 * 5)
            ([5, 5, 5, 1], [1, 2, 3, 4], [3, 3, 3, 1], -math.sqrt(0.6)),
            # ties on both sides: (1.5, 1.5, 3.5, 3.5) vs (1, 2.5, 2.5, 4): 3 / sqrt(4 * 4.5)
            ([1, 1, 2, 2], [1, 2, 2, 3], [1.5, 1.5, 3.5, 3.5], math.sqrt(0.5)),
            # ranks (4, 1, 4, 4, 2) vs (1, 2, 3, 4, 5): -1 / sqrt(8 * 10)
            ([3, 1, 3, 3, 2], [1, 2, 3, 4, 5], [4, 1, 4, 4, 2], -1 / math.sqrt(80)),
        ],
    )
    def test_spearman_averages_tied_ranks(self, x, y, ranks_x, spearman):
        assert _average_ranks(np.array(x, dtype=float)).tolist() == ranks_x
        assert correlate(x, y)[1] == pytest.approx(spearman, rel=4e-16)

    def test_nan_input_gives_nan(self):
        pearson, spearman = correlate([1.0, 2.0, math.nan, 4.0], [1.0, 3.0, 2.0, 5.0])
        assert math.isnan(pearson) and math.isnan(spearman)

    @given(
        st.lists(st.integers(-1000, 1000), min_size=4, max_size=20, unique=True),
        st.floats(min_value=0.01, max_value=50),
        st.floats(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_pearson_invariant_under_positive_affine_maps(self, xs, scale, shift):
        # Integer-valued inputs keep the affine map collision-free in float64.
        rng = np.random.default_rng(0)
        ys = rng.permutation(len(xs)).astype(float)
        base_p, base_s = correlate(xs, ys)
        mapped_p, mapped_s = correlate([scale * x + shift for x in xs], ys)
        assert mapped_p == pytest.approx(base_p, abs=1e-9)
        assert mapped_s == pytest.approx(base_s, abs=1e-12)

    @given(st.lists(st.floats(0.1, 50), min_size=4, max_size=15, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_spearman_invariant_under_monotone_transform(self, xs):
        ys = list(range(len(xs)))
        _, base = correlate(xs, ys)
        _, cubed = correlate([x ** 3 for x in xs], ys)
        assert cubed == pytest.approx(base, abs=1e-12)


def cdf(values):
    """``_cdf_arrays`` of ``values`` as two lists."""
    distinct, fractions = _cdf_arrays(np.asarray(values, dtype=np.float64))
    return distinct.tolist(), fractions.tolist()


class TestEmpiricalCdf:
    def test_counting_example(self):
        values, fractions = cdf([1.0, 2.0, 3.0])
        assert values == [1.0, 2.0, 3.0]
        assert fractions[1] == pytest.approx(2 / 3)
        assert fractions[-1] == 1.0

    def test_all_equal_single_step(self):
        assert cdf([5.0, 5.0, 5.0]) == ([5.0], [1.0])

    def test_order_invariant(self):
        assert cdf([3.0, 1.0, 2.0, 1.0]) == cdf([1.0, 1.0, 2.0, 3.0])

    def test_empty_gives_empty_arrays(self):
        # A run with no samples of one kind writes a header-only CDF file.
        assert cdf([]) == ([], [])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_valid_distribution_function(self, values):
        distinct, fractions = cdf(values)
        assert len(distinct) == len(fractions)
        assert all(b > a for a, b in zip(distinct, distinct[1:]))
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert 0.0 < fractions[0] and fractions[-1] == 1.0


def estimates(**by_node):
    """Node ids in ascending order and their constants, in the same order."""
    ids = tuple(int(name[1:]) for name in sorted(by_node))
    consts = tuple(
        ConstantsEstimate(mu=v[0], L=v[1], G=v[2], n_probes=2) for _, v in sorted(by_node.items())
    )
    return ids, consts


def selected_ids(ids, consts, k, policy, rng_seed=None):
    return {ids[i] for i in select_nodes(consts, k, policy, rng_seed)}


def select_nodes_by_id(estimates, k: int, policy: str, rng_seed: int | None = None) -> set[int]:
    """Pick k node ids by a constants-only policy; ties break by ascending id.

    ``estimates`` is a sequence of (node_id, ConstantsEstimate) pairs. The
    ``random`` policy needs ``rng_seed``; ``all`` returns every node.
    """
    pairs = list(estimates)
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"policy must be one of {SELECTION_POLICIES}")
    if not 1 <= k <= len(pairs):
        raise ValueError(f"k must lie in [1, {len(pairs)}]")
    ids = [node_id for node_id, _ in pairs]
    if policy == "all":
        return set(ids)
    if policy == "random":
        if rng_seed is None:
            raise ValueError("random policy needs rng_seed")
        rng = spawn_rng("select", rng_seed)
        return set(int(i) for i in rng.choice(sorted(ids), size=k, replace=False))
    key = {
        "top-L": lambda c: c.L,
        "top-G": lambda c: c.G,
        "bottom-mu": lambda c: -c.mu,
    }[policy]
    ranked = sorted(pairs, key=lambda pair: (-key(pair[1]), pair[0]))
    return {node_id for node_id, _ in ranked[:k]}


# Few distinct values, so that most draws tie on some constant.
tied_values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])


@st.composite
def selection_cases(draw):
    n = draw(st.integers(1, 12))
    consts = []
    for _ in range(n):
        mu, L = sorted((draw(tied_values), draw(tied_values)))
        consts.append(ConstantsEstimate(mu, L, abs(draw(tied_values)), 2))
    k = draw(st.integers(1, n))
    return tuple(consts), k, draw(st.sampled_from(SELECTION_POLICIES)), draw(st.integers(0, 2**32))


class TestSelectNodes:
    def test_top_l_argmax(self):
        ids, consts = estimates(n1=(0.1, 0.5, 1.0), n2=(0.1, 2.0, 1.0))
        assert selected_ids(ids, consts, 1, "top-L") == {2}

    def test_k_equals_n_returns_all(self):
        ids, consts = estimates(n1=(0.1, 0.5, 1.0), n2=(0.1, 2.0, 1.0), n3=(0.1, 1.0, 1.0))
        for policy in ("top-L", "top-G", "bottom-mu", "all"):
            assert selected_ids(ids, consts, 3, policy, rng_seed=0) == {1, 2, 3}

    def test_ties_break_by_ascending_id(self):
        ids, consts = estimates(n5=(0.1, 1.0, 1.0), n2=(0.1, 1.0, 1.0), n9=(0.1, 1.0, 1.0))
        assert selected_ids(ids, consts, 2, "top-L") == {2, 5}

    def test_bottom_mu_takes_smallest(self):
        ids, consts = estimates(n1=(0.5, 1.0, 1.0), n2=(0.1, 1.0, 1.0), n3=(0.9, 1.0, 1.0))
        assert selected_ids(ids, consts, 1, "bottom-mu") == {2}

    def test_random_is_seeded_and_valid(self):
        ids, consts = estimates(n1=(0.1, 1.0, 1.0), n2=(0.1, 1.0, 1.0), n3=(0.1, 1.0, 1.0))
        a = selected_ids(ids, consts, 2, "random", rng_seed=4)
        b = selected_ids(ids, consts, 2, "random", rng_seed=4)
        assert a == b
        assert len(a) == 2 and a <= {1, 2, 3}

    def test_k_out_of_range_rejected(self):
        _, consts = estimates(n1=(0.1, 1.0, 1.0))
        with pytest.raises(ValueError):
            select_nodes(consts, 2, "top-L")
        with pytest.raises(ValueError):
            select_nodes(consts, 0, "top-L")

    @given(st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_uniform_rescaling(self, scale):
        _, consts = estimates(n1=(0.1, 0.5, 3.0), n2=(0.2, 2.0, 1.0), n3=(0.3, 1.0, 2.0))
        scaled = [
            ConstantsEstimate(c.mu * scale, c.L * scale, c.G * scale, c.n_probes) for c in consts
        ]
        for policy in ("top-L", "top-G", "bottom-mu"):
            assert select_nodes(scaled, 2, policy) == select_nodes(consts, 2, policy)

    @given(selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_positions_pick_what_ids_picked(self, case):
        # The pairs form that select_nodes replaced, with each node's id its position.
        consts, k, policy, seed = case
        ids = range(len(consts))
        expected = select_nodes_by_id(zip(ids, consts), k, policy, seed)
        assert {ids[i] for i in select_nodes(consts, k, policy, seed)} == expected


class TestReports:
    def make_inputs(self):
        return ReportInputs(
            usefulness=np.array([float(i) * 0.1 for i in range(4)]),
            node_constants=tuple(
                ConstantsEstimate(0.1 * (i + 1), 1.0 + i, 2.0 - 0.3 * i, 5) for i in range(4)
            ),
            probe_g=np.array([1.0, 2.0, 3.0]),
            training_g=np.array([0.5, 0.25]),
            seed=3,
        )

    def test_report_files_and_schemas(self, tmp_path):
        write_reports(tmp_path, self.make_inputs())
        corr = (tmp_path / "correlations.csv").read_text().splitlines()
        assert corr[0] == "quantity,pearson,spearman,n"
        assert [line.split(",")[0] for line in corr[1:]] == ["mu", "L", "G"]
        cdf = (tmp_path / "cdf_probe.csv").read_text().splitlines()
        assert cdf[0] == "value,fraction"
        assert len(cdf) == 4
        sel = (tmp_path / "selection.csv").read_text().splitlines()
        assert sel[0] == "policy,k,chosen"
        assert len(sel) == 6
        top_l = next(line for line in sel if line.startswith("top-L"))
        assert top_l == "top-L,2,2;3"

    def test_degenerate_correlations_are_nan(self, tmp_path):
        inputs = ReportInputs(
            usefulness=np.array([0.1 * i for i in range(3)]),
            node_constants=(ConstantsEstimate(0.5, 1.0, 1.0, 5),) * 3,
            probe_g=np.array([1.0]),
            training_g=np.empty(0),
            seed=0,
        )
        rows = correlation_rows(inputs)
        assert all(np.isnan(p) and np.isnan(s) for _, p, s, _ in rows)
        write_reports(tmp_path, inputs)
        assert "nan" in (tmp_path / "correlations.csv").read_text()
        assert (tmp_path / "cdf_training.csv").read_text().splitlines() == ["value,fraction"]

    def test_roundtrip_through_run_directory(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, feature_dim=4, samples_per_class=80)
        cfg = ScenarioConfig(
            n_nodes=3, samples_per_node=40, rounds=3, model=softmax_spec(4, 3, l2=0.01),
            lr=0.1, batch_size=20, n_probes=4, seed=5,
        )
        run = run_federated(cfg, gen_synthetic(spec, seed=2))
        save_run(run, tmp_path, echo_lines(ExperimentConfig(cfg, spec, tmp_path, (cfg.seed,))))
        direct = report_inputs_from_run(run)
        parsed = report_inputs_from_dir(tmp_path)
        assert parsed.seed == 5
        assert parsed.usefulness.shape == (3,)
        np.testing.assert_allclose(parsed.usefulness, direct.usefulness, rtol=1e-6)
        for i in range(3):
            assert parsed.node_constants[i].L == pytest.approx(
                direct.node_constants[i].L, rel=1e-8
            )
        assert len(parsed.probe_g) == len(direct.probe_g)
        assert len(parsed.training_g) == len(direct.training_g)

    def test_report_names_constants_csv_without_node_rows(self, tmp_path, capsys):
        spec = SyntheticSpec(num_classes=3, feature_dim=4, samples_per_class=20)
        cfg = ScenarioConfig(
            n_nodes=2, samples_per_node=10, rounds=1, model=softmax_spec(4, 3, l2=0.01),
            lr=0.1, batch_size=5, n_probes=2, seed=1,
        )
        run = run_federated(cfg, gen_synthetic(spec, seed=1))
        save_run(run, tmp_path, echo_lines(ExperimentConfig(cfg, spec, tmp_path, (cfg.seed,))))
        # Keep the header and the global row (node id -1) only.
        for name, keep in (("constants.csv", [0, -1]), ("usefulness.csv", [0])):
            lines = (tmp_path / name).read_text().splitlines(keepends=True)
            (tmp_path / name).write_text("".join(lines[i] for i in keep))
        assert main(["report", "--run", str(tmp_path)]) != 0
        assert f"{tmp_path / 'constants.csv'}: no node rows" in capsys.readouterr().err

    @given(
        n_nodes=st.integers(2, 4),
        rounds=st.integers(1, 3),
        n_probes=st.integers(2, 4),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_saved_run_reads_back_as_the_run(self, n_nodes, rounds, n_probes, seed, data):
        # Every saved float has 9 significant digits; usefulness is the mean
        # of saved deltas, each off by at most half a unit in the 9th digit.
        k = data.draw(st.none() | st.integers(1, n_nodes), label="selection_k")
        cfg = ScenarioConfig(
            n_nodes=n_nodes, samples_per_node=15, rounds=rounds,
            model=softmax_spec(4, 3, l2=0.01), lr=0.1, batch_size=5,
            n_probes=n_probes, seed=seed,
        )
        spec = SyntheticSpec(3, 4, 30, separation=0.5)
        run = run_federated(cfg, gen_synthetic(spec, seed))
        with tempfile.TemporaryDirectory() as run_dir:
            experiment = ExperimentConfig(cfg, spec, Path(run_dir), (seed,), selection_k=k)
            save_run(run, run_dir, echo_lines(experiment))
            parsed = report_inputs_from_dir(run_dir)
        direct = replace(report_inputs_from_run(run), selection_k=k)

        def sig9(values):
            return [format(v, ".9g") for v in values]

        assert parsed.seed == direct.seed == seed
        assert parsed.selection_k == direct.selection_k == k
        assert parsed.usefulness.shape == direct.usefulness.shape == (n_nodes,)
        scale = np.abs(run.usefulness).max(axis=0)
        error = np.abs(parsed.usefulness - direct.usefulness)
        assert (error <= 5e-9 * scale * (1 + 1e-6)).all()
        assert len(parsed.node_constants) == len(direct.node_constants) == n_nodes
        for p, c in zip(parsed.node_constants, direct.node_constants):
            assert sig9((p.mu, p.L, p.G)) == sig9((c.mu, c.L, c.G))
            assert p.n_probes == c.n_probes
        assert sig9(parsed.probe_g) == sig9(direct.probe_g)
        assert sig9(parsed.training_g) == sig9(direct.training_g)

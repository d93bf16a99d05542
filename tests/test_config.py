import sys
from dataclasses import replace
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

from fedbound.config import (
    KNOWN_KEYS,
    CifarSource,
    ConfigError,
    build_experiment_config,
    load_config,
    parse_config_text,
)

GOOD = """\
# experiment settings
scenario.name = demo
scenario.n_nodes = 3
scenario.samples_per_node = 50   # inline comment
scenario.rounds = 4
scenario.lr = 0.2
scenario.seed = 9

model.kind = softmax
model.l2 = 0.05

data.source = synthetic
data.num_classes = 4
data.feature_dim = 6
repeat_seeds = 1, 2, 3
"""


class TestParser:
    def test_key_values_with_comments(self):
        raw = parse_config_text(GOOD)
        assert raw.values["scenario.n_nodes"] == "3"
        assert raw.values["scenario.samples_per_node"] == "50"
        assert raw.lines["scenario.rounds"] == 5

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("a = 1\nnot a pair\n")
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    def test_later_assignment_wins(self):
        raw = parse_config_text("x = 1\nx = 2\n")
        assert raw.values["x"] == "2"


class TestBuild:
    def test_full_build(self):
        cfg = build_experiment_config(parse_config_text(GOOD), base_dir=Path("/tmp"))
        assert cfg.scenario_name == "demo"
        assert cfg.scenario.n_nodes == 3
        assert cfg.scenario.lr == 0.2
        assert cfg.scenario.model.kind == "softmax"
        assert cfg.scenario.model.l2_coefficient == 0.05
        assert cfg.scenario.model.feature_dim == 6
        assert cfg.scenario.model.num_classes == 4
        assert cfg.repeat_seeds == (1, 2, 3)
        assert cfg.output_dir == Path("/tmp/runs")

    def test_defaults_without_repeat_seeds(self):
        cfg = build_experiment_config(parse_config_text("scenario.seed = 7\n"))
        assert cfg.repeat_seeds == (7,)

    def test_model_kind_aliases(self):
        cfg = build_experiment_config(
            parse_config_text("model.kind = softmax-regression\n")
        )
        assert cfg.scenario.model.kind == "softmax"
        cfg = build_experiment_config(
            parse_config_text("model.kind = one-hidden-layer-mlp\nmodel.hidden_width = 8\n")
        )
        assert cfg.scenario.model.kind == "mlp"
        assert cfg.scenario.model.hidden_width == 8

    def test_missing_class_out_of_range_rejected_with_line(self):
        text = "data.num_classes = 4\nscenario.missing_classes = 5\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 2

    def test_bad_int_reports_line(self):
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text("scenario.n_nodes = five\n"))
        assert excinfo.value.line == 1

    @pytest.mark.parametrize(
        "line, key",
        [
            ("data.label_skew = 1, 2", "data.label_skew"),
            ("data.noise_sigma = 0", "data.noise_sigma"),
            ("scenario.lr = -1", "scenario.lr"),
            ("scenario.rounds = 0", "scenario.rounds"),
            ("probe.n_probes = 1", "probe.n_probes"),
        ],
    )
    def test_field_check_names_the_line(self, line, key):
        # Field errors find their key by its last part, so those must be unique.
        assert len({k.rsplit(".", 1)[-1] for k in KNOWN_KEYS}) == len(KNOWN_KEYS)
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(f"scenario.n_nodes = 2\n{line}\n"))
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith(f"line 2: {key}: ")

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text("model.kind = cnn\n"))

    def test_unknown_g_formula_rejected(self):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text("probe.g_formula = whatever\n"))

    def test_cifar_source(self):
        text = (
            "data.source = cifar10\n"
            "data.cifar_path = /data/cifar\n"
            "data.cifar_pool = 4\n"
            "data.cifar_grayscale = true\n"
        )
        cfg = build_experiment_config(parse_config_text(text))
        assert isinstance(cfg.dataset, CifarSource)
        assert cfg.dataset.pool == 4
        assert cfg.dataset.grayscale
        assert cfg.scenario.model.feature_dim == 64  # 1 channel * (32/4)^2
        assert cfg.scenario.model.num_classes == 10

    def test_cifar_needs_path(self):
        with pytest.raises(ConfigError):
            build_experiment_config(parse_config_text("data.source = cifar10\n"))

    def test_label_skew_knob(self):
        text = "scenario.n_nodes = 2\ndata.label_skew = 0.0, 0.5\n"
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.dataset.label_skew == (0.0, 0.5)

    def test_duplicate_repeat_seeds_rejected_with_line(self):
        text = "scenario.n_nodes = 3\nrepeat_seeds = 1,1,2\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith("line 2: repeat_seeds: repeat_seeds must be distinct")
        # A config built in code, as run_scenarios.py --seeds builds one, is checked too.
        cfg = build_experiment_config(parse_config_text("scenario.n_nodes = 3\n"))
        with pytest.raises(ValueError, match="seed 1 is listed more than once"):
            replace(cfg, repeat_seeds=(1, 2, 1))

    def test_selection_k_range_checked(self):
        with pytest.raises(ConfigError):
            build_experiment_config(
                parse_config_text("scenario.n_nodes = 3\nselection.k = 4\n")
            )

    def test_batch_larger_than_node_rejected_with_line(self):
        text = "scenario.samples_per_node = 150\nscenario.batch_size = 400\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 2
        assert "[1, 150]" in str(excinfo.value)

    def test_empty_test_split_rejected_with_line(self):
        text = (
            "data.num_classes = 4\n"
            "data.samples_per_class = 100\n"
            "scenario.samples_per_node = 50\n"
            "scenario.test_fraction = 0.001\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 4
        # 0.002 of 400 rows rounds to one held-out row.
        build_experiment_config(parse_config_text(text.replace("0.001", "0.002")))

    def test_zero_test_fraction_rejected_for_cifar(self):
        text = (
            "data.source = cifar10\n"
            "data.cifar_path = /data/cifar\n"
            "scenario.test_fraction = 0\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 3

    def test_pool_too_small_for_the_nodes_rejected_with_line(self):
        # 4 x 100 rows less 40 held out leave 360 for 10 x 200.
        text = (
            "data.num_classes = 4\n"
            "scenario.n_nodes = 10\n"
            "data.samples_per_class = 100\n"
            "scenario.samples_per_node = 200\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert str(excinfo.value) == (
            "line 4: scenario.samples_per_node: n_nodes x samples_per_node = 2000 training "
            "rows, but the synthetic pool of 400 rows (num_classes x samples_per_class) "
            "leaves 360 after holding out 40 for testing"
        )
        # 36 x 10 rows fill the pool exactly.
        build_experiment_config(parse_config_text(text.replace("200", "36")))
        # Missing classes or per-node knobs leave the check to the run.
        build_experiment_config(parse_config_text(text + "scenario.missing_classes = 1\n"))
        knobs = "data.noise_mult = " + ", ".join(["1"] * 10) + "\n"
        build_experiment_config(parse_config_text(text + knobs))

    def test_per_node_synthetic_always_has_a_test_row(self):
        text = "scenario.n_nodes = 2\ndata.feature_scale = 0.5, 1.0\nscenario.test_fraction = 0\n"
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.scenario.test_fraction == 0.0

    @pytest.mark.parametrize(
        "line",
        ["data.label_skew = 0.1, 0.2", "data.noise_mult = 1, 2", "data.feature_scale = 1, 1"],
    )
    def test_knob_length_other_than_n_nodes_rejected_with_line(self, line):
        text = f"scenario.n_nodes = 3\n{line}\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        key = line.split()[0]
        assert str(excinfo.value) == (
            f"line 2: {key}: needs 3 entries, one per node (scenario.n_nodes = 3), got 2"
        )

    @pytest.mark.parametrize("knobs", ["", "data.noise_mult = 1, 1\n"])
    def test_every_class_missing_rejected_with_line(self, knobs):
        text = (
            f"scenario.n_nodes = 2\n{knobs}"
            "data.num_classes = 3\nscenario.missing_classes = 2, 0, 1\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == text.count("\n")
        assert "scenario.missing_classes: lists every class" in str(excinfo.value)
        build_experiment_config(parse_config_text(text.replace("2, 0, 1", "2, 0")))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD)
        cfg = load_config(path)
        assert cfg.output_dir == tmp_path / "runs"


class TestKeys:
    def test_unknown_key_rejected_with_line(self):
        text = "scenario.n_nodes = 4\nscenario.nodes = 3\nscenario.rounds = 2\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert str(excinfo.value) == "line 2: scenario.nodes: unknown key"

    def test_first_unknown_key_in_file_order_is_named(self):
        text = "modle.kind = mlp\nscenario.rounds = 2\nrepeat_seed = 1\n"
        with pytest.raises(ConfigError, match="line 1: modle.kind: unknown key"):
            build_experiment_config(parse_config_text(text))

    def test_every_known_key_is_accepted(self):
        synthetic = {
            "data.source": "synthetic", "data.num_classes": "3", "data.feature_dim": "4",
            "data.samples_per_class": "50", "data.separation": "0.5", "data.noise_sigma": "0.1",
            "data.label_skew": "0.5, 0.2", "data.noise_mult": "1, 1", "data.feature_scale": "1, 1",
            "data.cifar_path": "unused", "data.cifar_pool": "2", "data.cifar_grayscale": "true",
            "model.kind": "mlp", "model.l2": "0.01", "model.hidden_width": "5",
            "scenario.name": "all", "scenario.n_nodes": "2", "scenario.samples_per_node": "20",
            "scenario.rounds": "2", "scenario.lr": "0.1", "scenario.batch_size": "5",
            "scenario.local_epochs_per_round": "1", "scenario.missing_classes": "2",
            "scenario.test_fraction": "0.2", "scenario.seed": "4", "probe.n_probes": "3",
            "probe.sampler": "perturb", "probe.perturb_sigma": "0.2",
            "probe.g_formula": "loss-magnitude", "bound.squared_distance": "true",
            "output.dir": "out", "repeat_seeds": "1, 2", "selection.k": "1",
        }
        assert set(synthetic) == KNOWN_KEYS
        text = "".join(f"{key} = {value}\n" for key, value in synthetic.items())
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.scenario.probe_sampler == "perturb"

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.scenario.model is not None

    def test_benchmark_workload_configs_load(self, tmp_path):
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        for name, workload in WORKLOADS.items():
            path = tmp_path / f"{name}.cfg"
            path.write_text(workload.body)
            assert load_config(path).scenario_name

from pathlib import Path

import pytest

from fedbound.config import (
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

    def test_per_node_synthetic_always_has_a_test_row(self):
        text = "scenario.n_nodes = 2\ndata.feature_scale = 0.5, 1.0\nscenario.test_fraction = 0\n"
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.scenario.test_fraction == 0.0

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD)
        cfg = load_config(path)
        assert cfg.output_dir == tmp_path / "runs"

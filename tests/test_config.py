import contextlib
import dataclasses
import io
import math
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

REPO = Path(__file__).resolve().parents[1]

from fedbound import cli, config, flsim
from fedbound.analysis import report_inputs_from_dir
from fedbound.config import (
    KNOWN_KEYS,
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    echo_lines,
    parse_config_text,
    preflight,
    read_config,
)
from fedbound.cli import main
from fedbound.data import CIFAR_RECORD_BYTES, CifarSource, SyntheticSpec
from fedbound.flsim import PROBE_SAMPLER_KINDS, ScenarioConfig, node_datasets, probe_phase
from fedbound.model import ModelSpec
from fedbound.probe import G_FORMULAS, ProbeFailure
from test_data import make_record

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


def preflight_error(tmp_path: Path, capsys, text: str) -> str:
    """The config error of ``fedbound run`` on ``text``, which must exit 2
    before making its output directory."""
    path, out = tmp_path / "c.cfg", tmp_path / "out"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith("\n"), err
    return err[len("config error: ") : -1]


def preflight_text(tmp_path: Path, text: str) -> None:
    """Load ``text`` and run its pre-flight on each seed, which must pass."""
    path = tmp_path / "c.cfg"
    path.write_text(text)
    cfg = read_config(path)
    for seed in cfg.repeat_seeds:
        preflight(cfg, seed)


class TestParser:
    def test_key_values_with_comments(self):
        raw = parse_config_text(GOOD)
        assert raw.values["scenario.n_nodes"] == "3"
        assert raw.values["scenario.samples_per_node"] == "50"
        assert raw.lines["scenario.rounds"] == 5
        # A "#" starts a comment only at a line's start or after whitespace.
        raw = parse_config_text("#a = 1\nb = x#y\t# tab\nc = p#q #r\n  # d = 2\n")
        assert raw.values == {"b": "x#y", "c": "p#q"}

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text("a = 1\nnot a pair\n")
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    def test_later_assignment_wins(self):
        raw = parse_config_text("x = 1\nx = 2\n")
        assert raw.values["x"] == "2"

    @pytest.mark.parametrize(
        "line, item",
        [
            ("repeat_seeds = 1,,2", 2),
            ("data.feature_scale = 0.5,,1", 2),
            ("data.feature_scale = 1, 1, ", 3),
            ("scenario.missing_classes = ,1", 1),
        ],
    )
    def test_an_empty_list_item_fails_naming_its_line(self, line, item):
        key, value = (part.strip() for part in line.split("="))
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(f"scenario.n_nodes = 3\n{line}\n"))
        assert str(excinfo.value) == f"line 2: {key}: cannot parse {value!r}: item {item} is empty"
        # An empty whole value, as config.txt echoes an unset list, takes the default.
        empty = build_experiment_config(parse_config_text(f"scenario.n_nodes = 3\n{key} =\n"))
        assert empty == build_experiment_config(parse_config_text("scenario.n_nodes = 3\n"))


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

    @pytest.mark.parametrize(
        "line, why",
        [
            *(
                (f"model.kind = {kind}", f"unknown model kind {kind!r}")
                for kind in ("softmax-regression", "one-hidden-layer-mlp", "Softmax", "quadratic")
            ),
            *(
                (f"{key} = {value}", "expected true or false")
                for key in ("bound.squared_distance", "data.cifar_grayscale")
                for value in ("yes", "no", "on", "off", "1", "0", "True", "FALSE")
            ),
        ],
    )
    def test_only_the_spellings_config_txt_writes_are_read(self, line, why):
        text = "data.source = cifar10\ndata.cifar_path = x\n" if line.startswith("data.") else ""
        key, value = line.split(" = ")
        line_no = text.count("\n") + 1
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(f"{text}{line}\n"))
        assert str(excinfo.value) == f"line {line_no}: {key}: cannot parse {value!r}: {why}"

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
            ("data.feature_scale = 1, 2", "data.feature_scale"),
            ("data.feature_scale = 0, 1", "data.feature_scale"),
            ("data.feature_scale = 1, nan", "data.feature_scale"),
            ("data.feature_scale = 1, -inf", "data.feature_scale"),
            ("data.noise_sigma = 0", "data.noise_sigma"),
            ("scenario.lr = -1", "scenario.lr"),
            ("scenario.rounds = 0", "scenario.rounds"),
            ("probe.n_probes = 1", "probe.n_probes"),
            ("probe.sampler = bogus", "probe.sampler"),
            ("probe.g_formula = bogus", "probe.g_formula"),
            ("scenario.missing_classes = 7", "scenario.missing_classes"),
            ("repeat_seeds = ,", "repeat_seeds"),
            ("model.l2 = -1", "model.l2"),
            ("model.kind = mlp\nmodel.hidden_width = 0", "model.hidden_width"),
            ("data.source = cifar10\ndata.cifar_path = x\ndata.cifar_pool = 3", "data.cifar_pool"),
            ("selection.k = 3", "selection.k"),
            ("probe.sampler = perturb\nprobe.perturb_sigma = -1", "probe.perturb_sigma"),
            ("probe.sampler = perturb\nprobe.perturb_sigma = 0", "probe.perturb_sigma"),
            ("probe.sampler = perturb\nprobe.perturb_sigma = nan", "probe.perturb_sigma"),
            ("probe.sampler = perturb\nprobe.perturb_sigma = inf", "probe.perturb_sigma"),
            ("scenario.lr = nan", "scenario.lr"),
            ("scenario.lr = inf", "scenario.lr"),
            ("model.l2 = nan", "model.l2"),
            ("model.l2 = inf", "model.l2"),
            ("data.separation = nan", "data.separation"),
            ("data.noise_sigma = inf", "data.noise_sigma"),
            ("scenario.name = a/b", "scenario.name"),
            ("scenario.name = a\\b", "scenario.name"),
            ("scenario.name = a,b", "scenario.name"),
            ("scenario.name = .hid", "scenario.name"),
            ("model.num_classes = 1", "model.num_classes"),
            ("model.feature_dim = 0", "model.feature_dim"),
        ],
    )
    def test_field_check_names_the_line(self, line, key):
        # The last line of ``line`` sets ``key``; the check is the dataclass's own.
        line_no = 1 + line.count("\n") + 1
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(f"scenario.n_nodes = 2\n{line}\n"))
        assert excinfo.value.line == line_no
        assert str(excinfo.value).startswith(f"line {line_no}: {key}: ")

    @pytest.mark.parametrize("key", ["probe.sampler", "probe.g_formula", "model.kind"])
    def test_empty_value_takes_the_default(self, key):
        cfg = build_experiment_config(parse_config_text(f"{key} =\n"))
        default = build_experiment_config(parse_config_text(""))
        assert cfg == default

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

    @pytest.mark.parametrize(
        "source, dim, classes",
        [
            ("", 6, 4),
            ("data.source = cifar10\ndata.cifar_path = x\ndata.cifar_pool = 4\n", 192, 10),
        ],
        ids=["synthetic", "cifar10"],
    )
    def test_model_feature_dim_and_num_classes_must_restate_the_source(self, source, dim, classes):
        sizes = "data.feature_dim = 6\ndata.num_classes = 4\n" if not source else source
        text = f"{sizes}model.feature_dim = {dim}\nmodel.num_classes = {classes}\n"
        model = build_experiment_config(parse_config_text(text)).scenario.model
        assert (model.feature_dim, model.num_classes) == (dim, classes)
        line = sizes.count("\n") + 1
        for key, value, given in (("feature_dim", dim, 99), ("num_classes", classes, 3)):
            wrong = text.replace(f"model.{key} = {value}\n", f"model.{key} = {given}\n")
            with pytest.raises(ConfigError) as excinfo:
                build_experiment_config(parse_config_text(wrong))
            message = f"model.{key}: {given} differs from the data source's {value}"
            assert str(excinfo.value) == f"line {line}: {message}"
            line += 1

    def test_duplicate_repeat_seeds_rejected_with_line(self):
        text = "scenario.n_nodes = 3\nrepeat_seeds = 1,1,2\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith("line 2: repeat_seeds: repeat_seeds must be distinct")
        # A config built in code, with its seeds replaced, is checked too.
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

    # The split rules belong to flsim.partition_dataset, so a config that
    # breaks one loads and fails the pre-flight of fedbound run.
    def test_empty_test_split_rejected_with_line(self, tmp_path, capsys):
        text = (
            "data.num_classes = 4\n"
            "data.samples_per_class = 100\n"
            "scenario.samples_per_node = 50\n"
            "scenario.test_fraction = 0.001\n"
        )
        assert preflight_error(tmp_path, capsys, text) == (
            "line 4: scenario.test_fraction: test_fraction 0.001 leaves the test split empty"
        )
        # 0.002 of 400 rows rounds to one held-out row.
        preflight_text(tmp_path, text.replace("0.001", "0.002"))

    def test_zero_test_fraction_rejected_for_cifar(self, tmp_path, capsys):
        (tmp_path / "batch.bin").write_bytes(
            b"".join(make_record(i % 10) for i in range(60))
        )
        text = (
            "data.source = cifar10\n"
            "data.cifar_path = batch.bin\n"
            "scenario.test_fraction = 0\n"
            "scenario.n_nodes = 2\n"
            "scenario.samples_per_node = 20\n"
            "scenario.batch_size = 10\n"
        )
        assert preflight_error(tmp_path, capsys, text) == (
            "line 3: scenario.test_fraction: test_fraction 0 leaves the test split empty"
        )
        preflight_text(tmp_path, text.replace("= 0\n", "= 0.1\n"))

    def test_pool_too_small_for_the_nodes_rejected_with_line(self, tmp_path, capsys):
        # 4 x 100 rows less 40 held out leave 360 for 10 x 200.
        text = (
            "data.num_classes = 4\n"
            "scenario.n_nodes = 10\n"
            "data.samples_per_class = 100\n"
            "scenario.samples_per_node = 200\n"
        )
        assert preflight_error(tmp_path, capsys, text) == (
            "line 4: scenario.samples_per_node: seed 0: insufficient data: need 2000 "
            "training samples, have 360 of 400 after holding out 40; raise "
            "data.samples_per_class or lower scenario.samples_per_node"
        )
        # 36 x 10 rows fill the pool exactly.
        preflight_text(tmp_path, text.replace("200", "36"))
        # Per-node feature scales generate each node's rows, so any pool size runs.
        preflight_text(tmp_path, text + "data.feature_scale = " + ", ".join(["1"] * 10) + "\n")

    def test_missing_class_shortfall_on_every_split_rejected_with_line(self, tmp_path, capsys):
        # 2 of 4 classes x 40 rows leave at most 80 for 3 x 30, whatever the split.
        text = (
            "data.num_classes = 4\n"
            "data.samples_per_class = 40\n"
            "scenario.missing_classes = 0, 1\n"
            "scenario.n_nodes = 3\n"
            "scenario.samples_per_node = 30\n"
            "scenario.batch_size = 10\n"
        )
        assert preflight_error(tmp_path, capsys, text) == (
            "line 3: scenario.missing_classes: seed 0: insufficient data: need 90 training "
            "samples, have 71 of 160 after holding out 16 and leaving out classes [0, 1]; "
            "raise data.samples_per_class or lower scenario.samples_per_node"
        )
        # 71 rows fill 3 x 23 on this seed's split.
        preflight_text(tmp_path, text.replace("= 30", "= 23"))
        preflight_text(tmp_path, text + "data.feature_scale = 1, 1, 1\n")

    def test_per_node_synthetic_always_has_a_test_row(self):
        text = "scenario.n_nodes = 2\ndata.feature_scale = 0.5, 1.0\nscenario.test_fraction = 0\n"
        cfg = build_experiment_config(parse_config_text(text))
        assert cfg.scenario.test_fraction == 0.0

    @pytest.mark.parametrize("scales", ["1", "1, 1", "1, 1, 1, 1"])
    def test_knob_length_other_than_n_nodes_rejected_with_line(self, scales):
        text = f"scenario.n_nodes = 3\ndata.feature_scale = {scales}\n"
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        got = scales.count(",") + 1
        assert str(excinfo.value) == (
            f"line 2: data.feature_scale: needs 3 entries, one per node (scenario.n_nodes = 3), got {got}"
        )

    @pytest.mark.parametrize("knobs", ["", "data.feature_scale = 1, 1\n"])
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
        cfg = read_config(path)
        assert cfg.output_dir == tmp_path / "runs"


def line_of(path: Path, key: str) -> int:
    """The line of ``path`` that sets ``key``."""
    lines = [line.split("=", 1)[0].strip() for line in path.read_text().splitlines()]
    return lines.index(key) + 1


def replace_in(cfg: ExperimentConfig, owner: str, **changes) -> ExperimentConfig:
    """``cfg`` with ``changes`` made to its ``"scenario"``, ``"model"`` or ``"dataset"``."""
    if owner == "model":
        model = replace(cfg.scenario.model, **changes)
        return replace(cfg, scenario=replace(cfg.scenario, model=model))
    return replace(cfg, **{owner: replace(getattr(cfg, owner), **changes)})


@pytest.fixture
def no_datasets(monkeypatch):
    """Fails a test that builds a node dataset."""
    def fail(*args, **kwargs):
        raise AssertionError("node_datasets was called")

    monkeypatch.setattr(config, "node_datasets", fail)
    monkeypatch.setattr(flsim, "node_datasets", fail)


class TestConstruction:
    """ExperimentConfig and the dataclasses it holds check themselves, so a
    config built in code or by ``replace`` meets the rules of one read from text."""

    # A text field that config.txt would cut, strip or split would rerun as
    # another config, or not at all.
    UNECHOABLE = [
        ("a #b", "a '#' after whitespace would start a comment in config.txt"),
        (" pad", "leading or trailing whitespace would be stripped from config.txt"),
        ("pad ", "leading or trailing whitespace would be stripped from config.txt"),
        ("a\nb", "a line break would split its config.txt line"),
        ("a\x0cb", "a line break would split its config.txt line"),
    ]

    @pytest.mark.parametrize("text, message", UNECHOABLE)
    def test_a_text_field_that_config_txt_cannot_echo_fails_at_construction(
        self, no_datasets, text, message
    ):
        cfg = read_config(REPO / "configs" / "five_nodes.cfg")
        with pytest.raises(ValueError) as named:
            replace(cfg, scenario_name=text)
        assert str(named.value) == f"scenario_name {text!r}: {message}"
        path = REPO / "configs" / "cifar10.cfg"
        cifar = read_config(path)
        with pytest.raises(ConfigError) as pathed:
            replace(cifar, dataset=replace(cifar.dataset, path=Path(text)))
        line = line_of(path, "data.cifar_path")
        assert str(pathed.value) == f"line {line}: data.cifar_path: {text}: {message}"

    @pytest.mark.parametrize(
        "name, change, key, message",
        [
            (
                "hetero_eight_nodes",
                lambda cfg: {"scenario": replace(cfg.scenario, batch_size=200)},
                "scenario.batch_size",
                "batch_size 200 exceeds samples_per_node 150; it must lie in [1, 150]",
            ),
            (
                "five_nodes_missing_class",
                lambda cfg: {
                    "scenario": replace(cfg.scenario, missing_classes=frozenset({3, 0, 1, 2}))
                },
                "scenario.missing_classes",
                "lists every class, which leaves no training data",
            ),
            (
                "hetero_eight_nodes",
                lambda cfg: {"dataset": replace(cfg.dataset, feature_scale=(0.5, 1.0))},
                "data.feature_scale",
                "needs 8 entries, one per node (scenario.n_nodes = 8), got 2",
            ),
            (
                "cifar10",
                lambda cfg: {"dataset": replace(cfg.dataset, path=Path("/data/a #b"))},
                "data.cifar_path",
                "/data/a #b: a '#' after whitespace would start a comment in config.txt",
            ),
        ],
        ids=["batch_size", "every_class_missing", "knob_length", "cifar_path_comment"],
    )
    def test_a_fault_fails_at_construction(self, no_datasets, name, change, key, message):
        path = REPO / "configs" / f"{name}.cfg"
        cfg = read_config(path)
        changed = change(cfg)
        # Replaced on a config read from text, the error names the line it was read from.
        with pytest.raises(ConfigError) as replaced:
            replace(cfg, **changed)
        assert str(replaced.value) == f"line {line_of(path, key)}: {key}: {message}"
        # Built in code, the same error names no line.
        given = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.init}
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**{**given, "lines": {}, **changed})
        assert str(built.value) == f"{key}: {message}"
        assert built.value.line is None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "owner, name",
        [
            ("scenario", "lr"),
            ("model", "l2_coefficient"),
            ("dataset", "separation"),
            ("dataset", "noise_sigma"),
        ],
    )
    def test_a_non_finite_float_fails_at_construction(self, no_datasets, owner, name, value):
        cfg = read_config(REPO / "configs" / "five_nodes.cfg")
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >=? 0$"):
            replace_in(cfg, owner, **{name: value})

    def test_a_model_that_differs_from_its_data_source_fails_at_construction(self, no_datasets):
        # five_nodes.cfg sets no model size, so the error names no line.
        cfg = read_config(REPO / "configs" / "five_nodes.cfg")
        with pytest.raises(ConfigError) as excinfo:
            replace_in(cfg, "dataset", feature_dim=16)
        assert str(excinfo.value) == "model.feature_dim: 8 differs from the data source's 16"
        assert excinfo.value.line is None
        cfg = build_experiment_config(parse_config_text("model.num_classes = 4\n"))
        with pytest.raises(ConfigError) as excinfo:
            replace_in(cfg, "dataset", num_classes=5)
        assert str(excinfo.value) == "line 1: model.num_classes: 4 differs from the data source's 5"

    def test_an_empty_scenario_name_is_rejected(self):
        # No run directory pattern matches "_seed1", so summary.csv would leave the run out.
        cfg = build_experiment_config(parse_config_text(""))
        with pytest.raises(ValueError, match="^scenario_name must be nonempty$"):
            replace(cfg, scenario_name="")
        # Text cannot give "": an empty value takes the default.
        assert build_experiment_config(parse_config_text("scenario.name =\n")) == cfg

    def test_a_softmax_model_has_no_hidden_width(self):
        assert ModelSpec("softmax", 4, 3, hidden_width=16) == ModelSpec("softmax", 4, 3)
        assert ModelSpec("softmax", 4, 3, hidden_width=16).hidden_width == 0
        assert ModelSpec("mlp", 4, 3, hidden_width=16).hidden_width == 16

    def test_a_softmax_config_built_in_code_reruns_from_its_config_txt(self, tmp_path):
        model = ModelSpec("softmax", 4, 3, hidden_width=16, l2_coefficient=0.01)
        scenario = ScenarioConfig(2, 30, 2, model, batch_size=15, n_probes=3, seed=1)
        out = tmp_path / "out"
        cfg = ExperimentConfig(scenario, SyntheticSpec(3, 4, 40), out, (1,), "code")
        assert cli.run_experiment(cfg) == 0
        run_dir = out / "code_seed1"
        assert "model.hidden_width = 0\n" in (run_dir / "config.txt").read_text()
        assert main(["verify", "--run", str(run_dir)]) == 0

    def test_an_empty_config_gives_each_field_its_dataclass_default(self):
        # The keys whose field has no default or another one state their own.
        stated = {
            "scenario.n_nodes", "scenario.samples_per_node", "scenario.rounds",
            "model.kind", "model.hidden_width", "model.l2", "data.num_classes",
            "data.feature_dim", "data.samples_per_class", "output.dir",
        }
        taken = set()
        for text in ("", "data.source = cifar10\ndata.cifar_path = x\n"):
            cfg = build_experiment_config(parse_config_text(text))
            source_keys = next(keys for cls, keys in config._SOURCES.values()
                               if isinstance(cfg.dataset, cls))
            owners = [
                (cfg.scenario, config._SCENARIO_KEYS),
                (cfg.scenario.model, config._MODEL_KEYS),
                (cfg.dataset, source_keys),
                (cfg, {**config._RUN_KEYS, **config._SWEEP_KEYS}),
            ]
            for owner, keys in owners:
                defaults = {f.name: f.default for f in dataclasses.fields(owner)}
                for name, key in keys.items():
                    if key.name in stated:
                        assert key.default not in (None, defaults[name]), key.name
                    elif defaults[name] is dataclasses.MISSING:
                        assert key.default is None, key.name
                    else:
                        # The very object the field holds: the default is stated once.
                        assert key.default is defaults[name], key.name
                        assert getattr(owner, name) == key.default, key.name
                        taken.add(key.name)
        assert len(taken) == 18
        none_keys = {"model.feature_dim", "model.num_classes", "data.cifar_path", "repeat_seeds"}
        defaults = {key.name: key.default for keys in config._TABLES for key in keys.values()}
        assert {name for name, value in defaults.items() if value is None} == none_keys | {
            "selection.k"
        }


class TestPreflight:
    """The per-seed pre-flight rejects a config exactly when one of its seeds
    would fail the same way in its run."""

    TEXT = (
        "scenario.n_nodes = 2\nscenario.samples_per_node = 30\nscenario.batch_size = 15\n"
        "probe.n_probes = 40\ndata.num_classes = 3\ndata.feature_dim = 4\n"
        "repeat_seeds = 1,2,3\n"
    )

    @staticmethod
    def message(cfg: ExperimentConfig) -> str | None:
        """The pre-flight's message on the first seed it rejects, or None."""
        try:
            for seed in cfg.repeat_seeds:
                preflight(cfg, seed)
        except ConfigError as exc:
            return str(exc)
        return None

    def outcomes(self, text: str, run_seed) -> tuple[str | None, bool]:
        """The pre-flight's message (None if it passes), and whether ``run_seed``
        fails on some seed. The same config built in code, so with no lines,
        gets the message less its line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            path.write_text(text)
            cfg = read_config(path)
            message = self.message(cfg)
        built = ExperimentConfig(cfg.scenario, cfg.dataset, cfg.output_dir, cfg.repeat_seeds)
        assert built == cfg and not built.lines
        assert self.message(built) == (message and re.sub(r"^line \d+: ", "", message))
        failed = False
        for seed in cfg.repeat_seeds:
            try:
                run_seed(cfg, seed)
            except (ProbeFailure, ValueError):
                failed = True
        return message, failed

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(-16.5, -15.5))
    # Every seed fails at node 0: at its probe 0; at probe 0, or 1 for seed 3;
    # at probe 1 or 2. No exponent up to -15.5 passes; the next test takes
    # the side that does.
    @example(exponent=-16.0)
    @example(exponent=-15.8)
    @example(exponent=-15.7)
    def test_perturb_sigma_fails_exactly_when_a_probe_pair_does(self, exponent):
        text = self.TEXT + f"probe.sampler = perturb\nprobe.perturb_sigma = {10 ** exponent!r}\n"

        def probe(cfg, seed):
            scenario = replace(cfg.scenario, seed=seed)
            probe_phase(scenario, node_datasets(cfg.dataset, scenario)[1])

        message, failed = self.outcomes(text, probe)
        assert (message is not None) == failed
        if failed:
            assert message.startswith("line 9: probe.perturb_sigma: seed ")
            assert "is below 1e-30; raise probe.perturb_sigma" in message

    @pytest.mark.parametrize("exponent", [-15.45, -15.0])
    def test_perturb_sigma_past_the_failing_band_passes_and_probes(self, exponent):
        text = self.TEXT + f"probe.sampler = perturb\nprobe.perturb_sigma = {10 ** exponent!r}\n"

        def probe(cfg, seed):
            scenario = replace(cfg.scenario, seed=seed)
            probe_phase(scenario, node_datasets(cfg.dataset, scenario)[1])

        assert self.outcomes(text, probe) == (None, False)

    @pytest.mark.parametrize("per_class", range(30, 42))
    def test_missing_class_split_fails_exactly_when_a_seed_runs_short(self, per_class):
        text = self.TEXT + f"scenario.missing_classes = 2\ndata.samples_per_class = {per_class}\n"

        def build(cfg, seed):
            node_datasets(cfg.dataset, replace(cfg.scenario, seed=seed))

        message, failed = self.outcomes(text, build)
        assert (message is not None) == failed
        if failed:
            assert message.startswith("line 8: scenario.missing_classes: seed ")


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
        common = {
            "model.kind": "mlp", "model.l2": "0.01", "model.hidden_width": "5",
            "scenario.name": "all", "scenario.n_nodes": "2", "scenario.samples_per_node": "20",
            "scenario.rounds": "2", "scenario.lr": "0.1", "scenario.batch_size": "5",
            "scenario.local_epochs_per_round": "1", "scenario.missing_classes": "2",
            "scenario.test_fraction": "0.2", "scenario.seed": "4", "probe.n_probes": "3",
            "probe.sampler": "perturb", "probe.perturb_sigma": "0.2",
            "probe.g_formula": "loss-magnitude", "bound.squared_distance": "true",
            "output.dir": "out", "repeat_seeds": "1, 2", "selection.k": "1",
        }
        sources = {
            "synthetic": {
                "data.source": "synthetic", "data.num_classes": "3", "data.feature_dim": "4",
                "model.num_classes": "3", "model.feature_dim": "4",
                "data.samples_per_class": "50", "data.separation": "0.5",
                "data.noise_sigma": "0.1", "data.feature_scale": "1, 1",
            },
            "cifar10": {
                "data.source": "cifar10", "data.cifar_path": "unused", "data.cifar_pool": "2",
                "data.cifar_grayscale": "true", "model.num_classes": "10",
                "model.feature_dim": "256",
            },
        }
        assert set(common).union(*sources.values()) == KNOWN_KEYS
        for keys in sources.values():
            text = "".join(f"{key} = {value}\n" for key, value in {**common, **keys}.items())
            cfg = build_experiment_config(parse_config_text(text))
            assert cfg.scenario.probe_sampler == "perturb"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "data.source = synthetic\ndata.cifar_pool = 4\n",
                "line 2: data.cifar_pool: a key of data.source = cifar10, not synthetic",
            ),
            (
                "data.source = cifar10\ndata.cifar_path = x\ndata.feature_dim = 16\n"
                "data.samples_per_class = 5\n",
                "line 3: data.feature_dim: a key of data.source = synthetic, not cifar10",
            ),
        ],
        ids=["cifar10_key_under_synthetic", "synthetic_key_under_cifar10"],
    )
    def test_a_key_of_the_other_source_fails_naming_its_line(self, text, message):
        with pytest.raises(ConfigError) as excinfo:
            build_experiment_config(parse_config_text(text))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        cfg = read_config(path)
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
            assert read_config(path).scenario_name


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def config_texts(draw, tiny: bool = False) -> str:
    """A valid config that sets every key a run's config.txt echoes.

    A ``tiny`` one runs in milliseconds: at most 20 rows per node, 3 rounds
    and 8 probes, on a synthetic source of at most 100 rows per class or on
    CIFAR-10 batches at ``./cifar``, pooled to at most 48 features, which
    :func:`write_cifar` writes. Its pool may be too small for its nodes, and
    its ``test_fraction`` may hold out no row.
    """
    n_nodes = draw(st.integers(1, 5))
    per_node = draw(st.integers(1, 20 if tiny else 50))
    values = {
        "scenario.name": draw(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)),
        "scenario.n_nodes": n_nodes,
        "scenario.samples_per_node": per_node,
        "scenario.rounds": draw(st.integers(1, 3 if tiny else 100)),
        "scenario.lr": draw(floats(0.0, 10.0)),
        "scenario.batch_size": draw(st.integers(1, per_node)),
        "scenario.local_epochs_per_round": draw(st.integers(1, 3)),
        "scenario.test_fraction": draw(
            st.one_of(st.just(0.0), floats(0.001, 0.5)) if tiny else floats(0.01, 0.5)
        ),
        "scenario.seed": draw(st.integers(0, 2**63 - 1)),
        "probe.n_probes": draw(st.integers(2, 8 if tiny else 500)),
        "probe.sampler": draw(st.sampled_from(PROBE_SAMPLER_KINDS)),
        "probe.perturb_sigma": draw(
            st.one_of(
                st.floats(0.0, 5.0, exclude_min=True),
                st.floats(-17.0, 300.0).map(lambda exponent: 10.0**exponent),
            )
        ),
        "probe.g_formula": draw(st.sampled_from(G_FORMULAS)),
        "bound.squared_distance": draw(st.sampled_from(["true", "false"])),
        "model.kind": draw(st.sampled_from(["softmax", "mlp"])),
        "model.hidden_width": draw(st.integers(1, 32)),
        "model.l2": draw(floats(0.0, 1.0)),
    }
    if draw(st.booleans()):
        values["selection.k"] = draw(st.integers(1, n_nodes))
    if draw(st.booleans()):
        values["data.source"] = "cifar10"
        path = st.from_regex(r"(/|\./)?[a-z]{1,6}(/[a-z_]{1,6}){0,2}", fullmatch=True)
        values["data.cifar_path"] = "cifar" if tiny else draw(path)
        pools = [8, 16, 32] if tiny else [1, 2, 4, 8, 16, 32]
        values["data.cifar_pool"] = draw(st.sampled_from(pools))
        values["data.cifar_grayscale"] = draw(st.sampled_from(["true", "false"]))
        num_classes = 10
    else:
        # 1000 rows per class fill five nodes of 50 even with half held out.
        num_classes = draw(st.integers(2, 6))
        values["data.num_classes"] = num_classes
        values["data.feature_dim"] = draw(st.integers(1, 16))
        values["data.samples_per_class"] = draw(st.integers(1, 100)) if tiny else 1000
        # Class centers lie in [0.15, 0.85]^d; up to 1.0 apart most shapes
        # place them, and some still exit 2 at load.
        values["data.separation"] = draw(floats(0.01, 1.0))
        values["data.noise_sigma"] = draw(floats(0.01, 1.0))
        if draw(st.booleans()):
            scales = draw(st.lists(floats(0.01, 1.0), min_size=n_nodes, max_size=n_nodes))
            values["data.feature_scale"] = ", ".join(map(repr, scales))
    missing = draw(st.sets(st.integers(0, num_classes - 1), max_size=num_classes - 1))
    values["scenario.missing_classes"] = ", ".join(map(str, missing))
    return "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in values.items()
    )


class TestEcho:
    @pytest.mark.parametrize(
        "path", sorted((REPO / "tests" / "echo_golden").glob("*.cfg")), ids=lambda p: p.stem
    )
    def test_echo_matches_the_frozen_config_txt(self, path):
        # Each .txt next to a .cfg is the config.txt a run of seed 2 wrote
        # before fedbound.config owned the format: byte for byte, trailing
        # spaces included, less the warning.bound_assumptions line that
        # epochs3.txt held. A relative data.cifar_path echoes resolved against
        # the config file's directory, which {config_dir} stands for.
        cfg = read_config(path)
        cfg = replace(cfg, scenario=replace(cfg.scenario, seed=2))
        expected = path.with_suffix(".txt").read_text(encoding="utf-8")
        expected = expected.replace("{config_dir}", str(path.resolve().parent))
        assert "\n".join(echo_lines(cfg)) + "\n" == expected

    @given(text=config_texts())
    @settings(max_examples=60, deadline=None)
    def test_each_echoed_key_reads_back_through_its_own_parser(self, text):
        cfg = build_experiment_config(parse_config_text(text), base_dir=Path("/"))
        lines = echo_lines(cfg)
        echoed = parse_config_text("\n".join(lines)).values
        assert len(echoed) == len(lines)
        source_cls, source_keys = config._SOURCES[echoed["data.source"]]
        assert isinstance(cfg.dataset, source_cls)
        owners = [
            (config._SCENARIO_KEYS, cfg.scenario, True),
            (config._MODEL_KEYS, cfg.scenario.model, True),
            (source_keys, cfg.dataset, False),
            (config._RUN_KEYS, cfg, False),
        ]
        for keys, owner, always in owners:
            for key in keys.values():
                value = getattr(owner, key.field)
                if key.name not in echoed:
                    # Only an unset data or run key is left out.
                    assert not always and value in (None, ())
                else:
                    assert key.parse(echoed[key.name]) == value, key.name
        again = build_experiment_config(parse_config_text("\n".join(lines)), base_dir=Path("/"))
        for name in ("scenario", "dataset", "scenario_name", "selection_k"):
            assert getattr(again, name) == getattr(cfg, name), name
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            (run_dir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            # One row per node, as a run writes, so that selection.k fits the run.
            nodes = range(cfg.scenario.n_nodes)
            (run_dir / "usefulness.csv").write_text(
                "t,node_id,delta\n" + "".join(f"1,{i},0\n" for i in nodes)
            )
            (run_dir / "constants.csv").write_text(
                "node_id,mu,L,G,n_probes\n" + "".join(f"{i},0,1,1,2\n" for i in nodes)
            )
            (run_dir / "gtrace.csv").write_text(
                "source,node_id,value\nprobe,0,1\ntraining,0,1\n"
            )
            inputs = report_inputs_from_dir(run_dir)
        assert inputs.seed == cfg.scenario.seed
        assert inputs.selection_k == cfg.selection_k

    def test_readme_lists_every_key_with_its_default(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config format", 1)[1].split("```", 2)[1]
        listed = {}
        for line in block.splitlines():
            entries = re.finditer(
                r"([a-z_]+(?:\.[a-z0-9_]+)?)(?: \(((?:[^()]|\([^()]*\))*)\))?",
                line.split("#", 1)[0],
            )
            listed.update(match.groups() for match in entries)
        assert set(listed) == KNOWN_KEYS
        for keys in config._TABLES:
            for key in keys.values():
                if key.default is None:
                    continue
                # "()" is an empty list.
                assert listed[key.name] is not None, key.name
                assert key.parse(listed[key.name]) == key.default, key.name


# The causes a seed of a config that loaded may fail with: a number that
# went non-finite in SGD, in a round's losses or usefulness, or in a probe.
NUMERIC_FAILURE = re.compile(
    r"error: seed \d+ failed: (round \d+: node \d+: (epoch \d+: )?SGD step \d+ left non-finite"
    r" parameters"
    r"|losses must be finite|usefulness must be finite"
    r"|node \d+: probe \d+ failed: probe values must be finite)"
)

# What a tiny config's ./cifar is, half the time one batch file or a
# directory of two, else one that the pre-flight must reject.
CIFAR_LAYOUTS = st.one_of(
    st.sampled_from(["file", "dir"]),
    st.sampled_from(["missing", "empty_dir", "ragged", "empty_file"]),
)


def write_cifar(path: Path, layout: str, n_records: int, tail: int) -> None:
    """Write ``path`` as ``layout`` says, from ``n_records`` records of
    :func:`make_record`; a ragged file has ``tail`` bytes more."""
    batch = b"".join(make_record(i % 10, fill=37 * i % 256) for i in range(n_records))
    if layout in ("dir", "empty_dir"):
        path.mkdir()
    if layout == "dir":
        cut = n_records // 2 * CIFAR_RECORD_BYTES
        (path / "data_batch_1.bin").write_bytes(batch[:cut] or batch)
        if cut:
            (path / "data_batch_2.bin").write_bytes(batch[cut:])
    elif layout == "file":
        path.write_bytes(batch)
    elif layout == "ragged":
        path.write_bytes(batch + bytes(tail))
    elif layout == "empty_file":
        path.write_bytes(b"")


class TestGeneratedConfigs:
    @given(
        text=config_texts(tiny=True),
        layout=CIFAR_LAYOUTS,
        n_records=st.integers(1, 300),
        tail=st.integers(1, CIFAR_RECORD_BYTES - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_config_that_loads_runs_or_fails_at_load_naming_its_line(
        self, text, layout, n_records, tail
    ):
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            from checks import check_run_dir
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.cfg", Path(tmp) / "out"
            path.write_text(text)
            if "data.source = cifar10" in text:
                write_cifar(Path(tmp) / "cifar", layout, n_records, tail)

            def fedbound(*argv: str) -> tuple[int, str]:
                stderr = io.StringIO()
                # A Python warning, an error under tier-1, or an exception that
                # main lets through fails the example.
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    status = main(list(argv))
                return status, stderr.getvalue()

            status, err = fedbound("run", "--config", str(path), "--out", str(out))
            if status == 0:
                run_dirs = [d for d in out.iterdir() if d.is_dir()]
                assert len(run_dirs) == 1
                assert check_run_dir(run_dirs[0]) == []
                # The run's own config.txt reruns it, every file byte for byte,
                # with the same warnings.
                assert fedbound("verify", "--run", str(run_dirs[0])) == (0, err)
            elif status == 2:
                assert re.match(r"config error: line \d+: ", err), err
                assert not out.exists()
            else:
                assert status == 1
                assert NUMERIC_FAILURE.fullmatch(err.splitlines()[-1]), err
                assert not out.exists()

    @given(text=config_texts(), data=st.data())
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_a_config_built_in_code_fails_when_made_or_reruns_from_its_config_txt(
        self, no_datasets, text, data
    ):
        # Each float field that a key sets takes an edge or an in-range value,
        # a model size another size, or, half the time, the scenario name or
        # the CIFAR-10 path a text of comment marks, spaces and line breaks;
        # text and code must then agree.
        cfg = build_experiment_config(parse_config_text(text), base_dir=Path("/"))
        owners = {
            "scenario": (cfg.scenario, config._SCENARIO_KEYS),
            "model": (cfg.scenario.model, config._MODEL_KEYS),
            "dataset": next((cfg.dataset, keys) for cls, keys in config._SOURCES.values()
                            if isinstance(cfg.dataset, cls)),
        }
        choices = [
            (owner, f.name, f.type)
            for owner, (obj, keys) in owners.items()
            for f in dataclasses.fields(obj)
            if f.name in keys and f.type in ("float", "tuple[float, ...]")
        ]
        choices += [("model", "feature_dim", "int"), ("model", "num_classes", "int")]
        texts = [("config", "scenario_name", "text")]
        if isinstance(cfg.dataset, CifarSource):
            texts.append(("dataset", "path", "text"))
        owner, name, kind = data.draw(st.sampled_from(choices) | st.sampled_from(texts))
        if kind == "text":
            value = data.draw(st.text(st.sampled_from("ab#. \t\n\r\x0c\x85\u2028"), min_size=1))
            # An absolute path, as build_experiment_config makes every CIFAR-10 path.
            value = Path("/" + value) if name == "path" else value
        elif kind == "int":
            value = data.draw(st.integers(1, 16))
        else:
            edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308]
            value = data.draw(st.one_of(st.sampled_from(edges), floats(0.01, 1.0)))
            if kind != "float":
                # One node's entry; the others hold 0.5, which every knob takes.
                n = cfg.scenario.n_nodes
                entries = list(getattr(owners[owner][0], name) or (0.5,) * n)
                entries[data.draw(st.integers(0, n - 1))] = value
                value = tuple(entries)
        try:
            if owner == "config":
                built = replace(cfg, **{name: value})
            else:
                built = replace_in(cfg, owner, **{name: value})
        except ValueError:
            return
        echoed = parse_config_text("\n".join(echo_lines(built)))
        again = build_experiment_config(echoed, base_dir=Path("/"))
        assert replace(again, output_dir=built.output_dir, repeat_seeds=built.repeat_seeds) == built

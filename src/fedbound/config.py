"""Plain-text experiment configuration.

The format is one ``key = value`` per line with dotted keys for nesting; a
``#`` at the start of a line or after whitespace starts a comment. No
external parser needed. Validation errors carry the offending line number.

One table per dataclass names each key, the field it sets, its parser and
its default. The tables drive the typed reads, the line a field check names,
and :func:`echo_lines`, a run's ``config.txt``: a config that reruns the run.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .csvio import fmt_value
from .data import CifarFormatError, CifarSource, ClassCentersError, SyntheticSpec
from .flsim import EmptyTestSplitError, ScenarioConfig, Setup, ShortfallError
from .flsim import node_datasets, probe_phase
from .model import ModelSpec
from .probe import DegeneratePairError, ProbeFailure


class ConfigError(ValueError):
    """Config problem with a pointer to the source line."""

    def __init__(self, message: str, line: int | None = None):
        location = f"line {line}: " if line is not None else ""
        super().__init__(f"{location}{message}")
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario plus dataset source, output location, and repeat seeds; ``lines``
    holds each key's line in the text read, and is empty for a config built in code."""

    scenario: ScenarioConfig
    dataset: SyntheticSpec | CifarSource
    output_dir: Path
    repeat_seeds: tuple[int, ...]
    scenario_name: str = "default"
    selection_k: int | None = None
    lines: Mapping[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.repeat_seeds:
            raise ValueError("repeat_seeds must be nonempty")
        # Two runs of one seed would write one run directory twice.
        twice = [s for i, s in enumerate(self.repeat_seeds) if s in self.repeat_seeds[:i]]
        if twice:
            raise ValueError(
                f"repeat_seeds must be distinct; seed {twice[0]} is listed more than once"
            )
        # The name starts every run directory's name and a summary.csv cell.
        name = self.scenario_name
        if name.startswith(".") or set(name) & set("/\\,"):
            raise ValueError(f"scenario_name {name!r} holds '/', '\\' or ',' or starts with '.'")
        n = self.scenario.n_nodes
        if self.selection_k is not None and not 1 <= self.selection_k <= n:
            raise ValueError(f"selection_k must lie in [1, {n}]")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_int_set(raw: str) -> frozenset[int]:
    return frozenset(_parse_int_list(raw))


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip()) for part in raw.split(",") if part.strip())


_MODEL_KIND_ALIASES = {
    "softmax": "softmax",
    "softmax-regression": "softmax",
    "mlp": "mlp",
    "one-hidden-layer-mlp": "mlp",
}


def _parse_model_kind(raw: str) -> str:
    if raw not in _MODEL_KIND_ALIASES:
        raise ValueError(f"unknown model kind {raw!r}")
    return _MODEL_KIND_ALIASES[raw]


@dataclass(frozen=True)
class _Key:
    """A config key: its name, the field it sets, its parser and its default."""

    name: str
    field: str
    parse: Callable[[str], Any]
    default: Any = None


def _table(*keys: _Key) -> dict[str, _Key]:
    """Keys by the field they set, in echo order."""
    return {key.field: key for key in keys}


_SCENARIO_KEYS = _table(
    _Key("scenario.n_nodes", "n_nodes", int, 5),
    _Key("scenario.samples_per_node", "samples_per_node", int, 200),
    _Key("scenario.rounds", "rounds", int, 30),
    _Key("scenario.lr", "lr", _parse_float, 0.05),
    _Key("scenario.batch_size", "batch_size", int, 32),
    _Key("scenario.local_epochs_per_round", "local_epochs_per_round", int, 1),
    _Key("scenario.missing_classes", "missing_classes", _parse_int_set, frozenset()),
    _Key("scenario.test_fraction", "test_fraction", _parse_float, 0.1),
    _Key("scenario.seed", "seed", int, 0),
    _Key("probe.n_probes", "n_probes", int, 100),
    _Key("probe.sampler", "probe_sampler", str, "init"),
    _Key("probe.perturb_sigma", "perturb_sigma", _parse_float, 0.1),
    _Key("probe.g_formula", "g_formula", str, "gradient-norm"),
    _Key("bound.squared_distance", "squared_distance", _parse_bool, False),
)
# The data source fixes the feature dimension and class count; a config may only restate them.
_MODEL_KEYS = _table(
    _Key("model.kind", "kind", _parse_model_kind, "softmax"),
    _Key("model.feature_dim", "feature_dim", int),
    _Key("model.num_classes", "num_classes", int),
    _Key("model.hidden_width", "hidden_width", int, 16),
    _Key("model.l2", "l2_coefficient", _parse_float, 0.01),
)
_SYNTHETIC_KEYS = _table(
    _Key("data.num_classes", "num_classes", int, 4),
    _Key("data.feature_dim", "feature_dim", int, 8),
    _Key("data.samples_per_class", "samples_per_class", int, 400),
    _Key("data.separation", "separation", _parse_float, 0.7),
    _Key("data.noise_sigma", "noise_sigma", _parse_float, 0.12),
    _Key("data.label_skew", "label_skew", _parse_float_list, ()),
    _Key("data.noise_mult", "noise_mult", _parse_float_list, ()),
    _Key("data.feature_scale", "feature_scale", _parse_float_list, ()),
)
_CIFAR_KEYS = _table(
    _Key("data.cifar_path", "path", Path),
    _Key("data.cifar_pool", "pool", int, 1),
    _Key("data.cifar_grayscale", "grayscale", _parse_bool, False),
)
_SOURCE = _Key("data.source", "dataset", str, "synthetic")
_SOURCES = {"synthetic": (SyntheticSpec, _SYNTHETIC_KEYS), "cifar10": (CifarSource, _CIFAR_KEYS)}
# ExperimentConfig fields that describe one run, so its config.txt records them.
_RUN_KEYS = _table(
    _Key("scenario.name", "scenario_name", str, "default"),
    _Key("selection.k", "selection_k", int),
)
# Where the runs go and which seeds run; no one run directory records them.
_SWEEP_KEYS = _table(
    _Key("output.dir", "output_dir", Path, Path("runs")),
    _Key("repeat_seeds", "repeat_seeds", _parse_int_list),
)

_TABLES = (
    _table(_SOURCE), _SCENARIO_KEYS, _MODEL_KEYS,
    _SYNTHETIC_KEYS, _CIFAR_KEYS, _RUN_KEYS, _SWEEP_KEYS,
)
# Every key build_experiment_config reads, under any data.source.
KNOWN_KEYS = frozenset(k.name for table in _TABLES for k in table.values())
# The one data.source that reads each data key.
_KEY_SOURCE = {k.name: source for source, (_, keys) in _SOURCES.items() for k in keys.values()}
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class _RawConfig:
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def error(self, key: str, message: str):
        return ConfigError(f"{key}: {message}", self.lines.get(key))

    def read(self, key: _Key):
        """The typed value of ``key``; an unset or empty key takes its default."""
        raw = self.values.get(key.name)
        if raw is None or raw == "":
            return key.default
        try:
            return key.parse(raw)
        except (TypeError, ValueError) as exc:
            raise self.error(key.name, f"cannot parse {raw!r}: {exc}") from exc

    def build(self, cls, keys: dict[str, _Key], **given):
        """``cls`` from the values of ``keys`` and the ``given`` fields. The class
        checks its fields, each message starting with the field's name."""
        fields = {name: self.read(key) for name, key in keys.items()}
        try:
            return cls(**{**fields, **given})
        except ValueError as exc:
            key = keys.get(str(exc).split(" ", 1)[0])
            if key is None:
                raise ConfigError(str(exc)) from exc
            raise self.error(key.name, str(exc)) from exc

    def first_set(self, *keys: _Key) -> str:
        """The first of ``keys`` the config sets, so an error can name its line."""
        return next((key.name for key in keys if key.name in self.lines), keys[0].name)


def parse_config_text(text: str) -> _RawConfig:
    """Parse ``key = value`` lines; later assignments override earlier ones."""
    raw = _RawConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        raw.values[key] = value.strip()
        raw.lines[key] = lineno
    return raw


def build_experiment_config(raw: _RawConfig, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate raw key-value pairs into a typed experiment configuration."""
    base_dir = base_dir or Path.cwd()
    source = raw.read(_SOURCE)
    # The first unknown key in file order, so a typo fails before any work. A
    # key of another data.source is refused too: this source would ignore it.
    for key in sorted(raw.values, key=lambda key: raw.lines.get(key, 0)):
        if key not in KNOWN_KEYS:
            raise raw.error(key, "unknown key")
        if source in _SOURCES and _KEY_SOURCE.get(key, source) != source:
            raise raw.error(key, f"a key of {_SOURCE.name} = {_KEY_SOURCE[key]}, not {source}")

    if source not in _SOURCES:
        raise raw.error(_SOURCE.name, f"unknown source {source!r}")
    cls, keys = _SOURCES[source]
    if cls is CifarSource and raw.read(keys["path"]) is None:
        raise raw.error(_SOURCE.name, f"{source} source needs {keys['path'].name}")
    dataset = raw.build(cls, keys)
    if cls is CifarSource:
        # Relative to the config file, as output.dir is; an absolute path stays.
        dataset = replace(dataset, path=base_dir / dataset.path)
        if _COMMENT.search(str(dataset.path)):
            message = f"{dataset.path}: a '#' after whitespace would start a comment in config.txt"
            raise raw.error(keys["path"].name, message)

    fixed = {f: getattr(dataset, f) for f in ("feature_dim", "num_classes")}
    for f, value in fixed.items():
        if (stated := raw.read(_MODEL_KEYS[f])) not in (None, value):
            raise raw.error(_MODEL_KEYS[f].name, f"{stated} differs from the data source's {value}")
    model = raw.build(ModelSpec, _MODEL_KEYS, **fixed)
    if model.kind == "softmax":
        # A softmax model has no hidden layer, whatever model.hidden_width says.
        model = replace(model, hidden_width=0)
    scenario = raw.build(ScenarioConfig, _SCENARIO_KEYS, model=model)
    _check_sizes(raw, scenario, dataset)

    seeds = raw.read(_SWEEP_KEYS["repeat_seeds"])
    return raw.build(
        ExperimentConfig,
        {**_RUN_KEYS, **_SWEEP_KEYS},
        scenario=scenario,
        dataset=dataset,
        # An absolute output.dir stays as it is.
        output_dir=base_dir / raw.read(_SWEEP_KEYS["output_dir"]),
        repeat_seeds=(scenario.seed,) if seeds is None else seeds,
        lines=raw.lines,
    )


def _check_sizes(
    raw: _RawConfig, scenario: ScenarioConfig, dataset: SyntheticSpec | CifarSource
) -> None:
    """Reject sizes that fail without any data; :func:`preflight` builds each
    seed's datasets, which checks the rest."""
    s, d = _SCENARIO_KEYS, _SYNTHETIC_KEYS
    if scenario.batch_size > scenario.samples_per_node:
        raise raw.error(
            raw.first_set(s["batch_size"], s["samples_per_node"]),
            f"batch_size {scenario.batch_size} exceeds samples_per_node "
            f"{scenario.samples_per_node}; it must lie in [1, {scenario.samples_per_node}]",
        )
    if len(scenario.missing_classes) == scenario.model.num_classes:
        raise raw.error(
            s["missing_classes"].name, "lists every class, which leaves no training data"
        )
    if isinstance(dataset, CifarSource):
        return
    for knob in ("label_skew", "noise_mult", "feature_scale"):
        entries = getattr(dataset, knob)
        if entries and len(entries) != scenario.n_nodes:
            raise raw.error(
                d[knob].name,
                f"needs {scenario.n_nodes} entries, one per node "
                f"({s['n_nodes'].name} = {scenario.n_nodes}), got {len(entries)}",
            )


def read_config(path: Path | str) -> ExperimentConfig:
    """The config at ``path``, which keeps the line of each key for
    :func:`preflight` to name; the file is read once, so it may be a pipe."""
    path = Path(path)
    raw = parse_config_text(path.read_text(encoding="utf-8"))
    return build_experiment_config(raw, base_dir=path.resolve().parent)


def load_config(path: Path | str) -> ExperimentConfig:
    """The name perfbench times; fedbound itself calls :func:`read_config`."""
    return read_config(path)


def preflight(cfg: ExperimentConfig, seed: int) -> Setup:
    """``seed``'s set-up: its test set, node datasets and their probe result. A
    :class:`ConfigError` names the key, and its line if ``cfg`` was read from text,
    if the seed cannot run past it; a probe failure under ``init`` is a ValueError.

    The set-up is the run's first phase: :func:`flsim.node_datasets`, the first
    of which loads the CIFAR-10 batches the run reuses, then
    :func:`flsim.probe_phase`. A fault is told apart by its exception class.
    The seeds are known only once ``FEDBOUND_SEED`` has been applied, so
    :func:`read_config` does not call it.
    """
    raw = _RawConfig(lines=cfg.lines)
    s, d, c = _SCENARIO_KEYS, _SYNTHETIC_KEYS, _CIFAR_KEYS
    if isinstance(cfg.dataset, CifarSource):
        pool, more = (c["path"],), ""
    else:
        pool = (d["samples_per_class"], d["num_classes"])
        more = f"raise {d['samples_per_class'].name} or "
    scenario = replace(cfg.scenario, seed=seed)
    try:
        test_data, nodes = node_datasets(cfg.dataset, scenario)
    except (OSError, CifarFormatError) as exc:
        raise raw.error(c["path"].name, str(exc)) from exc
    except ClassCentersError as exc:
        raise raw.error(
            raw.first_set(d["feature_dim"], d["num_classes"], d["separation"]),
            f"{exc} for seed {seed}; lower {d['separation'].name}, raise "
            f"{d['feature_dim'].name} or use fewer classes",
        ) from exc
    except ShortfallError as exc:
        short = (s["samples_per_node"], s["n_nodes"], *pool)
        raise raw.error(
            raw.first_set(*([s["missing_classes"]] if scenario.missing_classes else short)),
            f"seed {seed}: {exc}; {more}lower {s['samples_per_node'].name}",
        ) from exc
    except EmptyTestSplitError as exc:
        raise raw.error(raw.first_set(s["test_fraction"], pool[0]), str(exc)) from exc
    try:
        return test_data, nodes, probe_phase(scenario, nodes)
    except ProbeFailure as exc:
        if scenario.probe_sampler == "init":
            raise ValueError(f"seed {seed} failed: {exc}") from exc
        name = s["perturb_sigma"].name
        advice = "raise" if isinstance(exc.__cause__, DegeneratePairError) else "lower"
        raise raw.error(name, f"seed {seed}, {exc}; {advice} {name}") from exc


def _echo_value(value) -> str:
    """A field's value as config.txt writes it, to read back exactly: a float at 9
    significant digits, or 17 where 9 lose bits; tuples and sorted frozensets comma-joined."""
    if isinstance(value, (tuple, frozenset)):
        return ",".join(map(_echo_value, sorted(value) if isinstance(value, frozenset) else value))
    if isinstance(value, float) and float(fmt_value(value)) != value:
        return format(value, ".17g")
    return fmt_value(value)


def echo_lines(cfg: ExperimentConfig) -> list[str]:
    """The ``config.txt`` lines of a run of ``cfg``, a config that reruns it: scenario,
    probe, bound and model keys in table order, then the set data and run keys, sorted."""
    pairs = [(key.name, getattr(cfg.scenario, f)) for f, key in _SCENARIO_KEYS.items()]
    pairs += [(key.name, getattr(cfg.scenario.model, f)) for f, key in _MODEL_KEYS.items()]
    source, keys = next(
        (name, keys) for name, (cls, keys) in _SOURCES.items() if isinstance(cfg.dataset, cls)
    )
    extras = [(_SOURCE.name, source)]
    extras += [(key.name, getattr(cfg.dataset, f)) for f, key in keys.items()]
    extras += [(key.name, getattr(cfg, f)) for f, key in _RUN_KEYS.items()]
    pairs += sorted(pair for pair in extras if pair[1] not in (None, ()))
    return [f"{name} = {_echo_value(value)}" for name, value in pairs]

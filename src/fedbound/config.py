"""Plain-text experiment configuration.

The format is one ``key = value`` per line with dotted keys for nesting; a
``#`` at the start of a line or after whitespace starts a comment. No
external parser needed. Validation errors carry the offending line number.
A value is read in the one spelling config.txt writes: ``model.kind`` is
``softmax`` or ``mlp`` and a boolean is ``true`` or ``false``.

One table per dataclass names each key, the field it sets, its parser and its
default, if not the field's. The tables drive the typed reads, the line a check
names, and :func:`echo_lines`, a run's ``config.txt``: a config that reruns the run.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
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
    """One scenario plus dataset source, output location, and repeat seeds; ``lines`` holds
    each key's line in the text read, for its checks to name; empty for a config built in code."""

    scenario: ScenarioConfig
    dataset: SyntheticSpec | CifarSource
    output_dir: Path
    repeat_seeds: tuple[int, ...]
    scenario_name: str = "default"
    selection_k: int | None = None
    lines: Mapping[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        lines, s, scenario, n = self.lines, _SCENARIO_KEYS, self.scenario, self.scenario.n_nodes
        for f in ("feature_dim", "num_classes"):
            if (stated := getattr(scenario.model, f)) != (fixed := getattr(self.dataset, f)):
                message = f"{stated} differs from the data source's {fixed}"
                raise _error(lines, _MODEL_KEYS[f].name, message)
        if isinstance(self.dataset, CifarSource) and (why := _unechoable(str(self.dataset.path))):
            raise _error(lines, _CIFAR_KEYS["path"].name, f"{self.dataset.path}: {why}")
        # Sizes that fail without any data; :func:`preflight` checks the rest.
        if scenario.batch_size > (per_node := scenario.samples_per_node):
            key = _first_set(lines, s["batch_size"], s["samples_per_node"])
            message = f"batch_size {scenario.batch_size} exceeds samples_per_node {per_node}"
            raise _error(lines, key, f"{message}; it must lie in [1, {per_node}]")
        if len(scenario.missing_classes) == scenario.model.num_classes:
            message = "lists every class, which leaves no training data"
            raise _error(lines, s["missing_classes"].name, message)
        if (scales := getattr(self.dataset, "feature_scale", ())) and len(scales) != n:
            message = f"needs {n} entries, one per node ({s['n_nodes'].name} = {n})"
            key = _SYNTHETIC_KEYS["feature_scale"].name
            raise _error(lines, key, f"{message}, got {len(scales)}")
        if not self.repeat_seeds:
            raise ValueError("repeat_seeds must be nonempty")
        # Two runs of one seed would write one run directory twice.
        if twice := [t for i, t in enumerate(self.repeat_seeds) if t in self.repeat_seeds[:i]]:
            raise ValueError(
                f"repeat_seeds must be distinct; seed {twice[0]} is listed more than once"
            )
        # The name starts every run directory's name and a summary.csv cell.
        name = self.scenario_name
        if not name:
            raise ValueError("scenario_name must be nonempty")
        if name.startswith(".") or set(name) & set("/\\,"):
            raise ValueError(f"scenario_name {name!r} holds '/', '\\' or ',' or starts with '.'")
        if why := _unechoable(name):
            raise ValueError(f"scenario_name {name!r}: {why}")
        if self.selection_k is not None and not 1 <= self.selection_k <= n:
            raise ValueError(f"selection_k must lie in [1, {n}]")


def _parse_bool(raw: str) -> bool:
    """``true`` or ``false``, the spellings config.txt writes."""
    if raw not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw == "true"


def _list_of(parse: Callable[[str], Any], kind: type = tuple) -> Callable[[str], Any]:
    """A parser of comma-separated items, each read by ``parse``, into a ``kind``;
    an empty item fails, and an empty value has none."""
    def parse_items(raw: str):
        items = [part.strip() for part in raw.split(",")] if raw else []
        if "" in items:
            raise ValueError(f"item {items.index('') + 1} is empty")
        return kind(map(parse, items))
    return parse_items


def _parse_model_kind(raw: str) -> str:
    """``softmax`` or ``mlp``; the quadratic test objective has no config."""
    if raw not in ("softmax", "mlp"):
        raise ValueError(f"unknown model kind {raw!r}")
    return raw


@dataclass(frozen=True)
class _Key:
    """A config key: its name, the field it sets, its parser and its default."""

    name: str
    field: str
    parse: Callable[[str], Any]
    default: Any = ...  # unstated: _table gives the field's


def _table(cls, *keys: _Key) -> dict[str, _Key]:
    """Keys by the field of ``cls`` they set, in echo order; a key that states no
    default takes its field's, or None if the field has none."""
    defaults = {f.name: None if f.default is MISSING else f.default for f in fields(cls)}
    return {k.field: replace(k, default=defaults[k.field]) if k.default is ... else k for k in keys}


_SCENARIO_KEYS = _table(
    ScenarioConfig,
    _Key("scenario.n_nodes", "n_nodes", int, 5),
    _Key("scenario.samples_per_node", "samples_per_node", int, 200),
    _Key("scenario.rounds", "rounds", int, 30),
    _Key("scenario.lr", "lr", float),
    _Key("scenario.batch_size", "batch_size", int),
    _Key("scenario.local_epochs_per_round", "local_epochs_per_round", int),
    _Key("scenario.missing_classes", "missing_classes", _list_of(int, frozenset)),
    _Key("scenario.test_fraction", "test_fraction", float),
    _Key("scenario.seed", "seed", int),
    _Key("probe.n_probes", "n_probes", int),
    _Key("probe.sampler", "probe_sampler", str),
    _Key("probe.perturb_sigma", "perturb_sigma", float),
    _Key("probe.g_formula", "g_formula", str),
    _Key("bound.squared_distance", "squared_distance", _parse_bool),
)
# The data source fixes the feature dimension and class count; a config may only restate them.
_MODEL_KEYS = _table(
    ModelSpec,
    _Key("model.kind", "kind", _parse_model_kind, "softmax"),
    _Key("model.feature_dim", "feature_dim", int),
    _Key("model.num_classes", "num_classes", int),
    _Key("model.hidden_width", "hidden_width", int, 16),
    _Key("model.l2", "l2_coefficient", float, 0.01),
)
_SYNTHETIC_KEYS = _table(
    SyntheticSpec,
    _Key("data.num_classes", "num_classes", int, 4),
    _Key("data.feature_dim", "feature_dim", int, 8),
    _Key("data.samples_per_class", "samples_per_class", int, 400),
    _Key("data.separation", "separation", float),
    _Key("data.noise_sigma", "noise_sigma", float),
    _Key("data.feature_scale", "feature_scale", _list_of(float)),
)
_CIFAR_KEYS = _table(
    CifarSource,
    _Key("data.cifar_path", "path", Path),
    _Key("data.cifar_pool", "pool", int),
    _Key("data.cifar_grayscale", "grayscale", _parse_bool),
)
_SOURCE = _Key("data.source", "dataset", str, "synthetic")
_SOURCES = {"synthetic": (SyntheticSpec, _SYNTHETIC_KEYS), "cifar10": (CifarSource, _CIFAR_KEYS)}
# ExperimentConfig fields that describe one run, so its config.txt records them.
_RUN_KEYS = _table(
    ExperimentConfig,
    _Key("scenario.name", "scenario_name", str),
    _Key("selection.k", "selection_k", int),
)
# Where the runs go and which seeds run; no one run directory records them.
_SWEEP_KEYS = _table(
    ExperimentConfig,
    _Key("output.dir", "output_dir", Path, Path("runs")),
    _Key("repeat_seeds", "repeat_seeds", _list_of(int)),
)

_TABLES = (
    _table(ExperimentConfig, _SOURCE), _SCENARIO_KEYS, _MODEL_KEYS,
    _SYNTHETIC_KEYS, _CIFAR_KEYS, _RUN_KEYS, _SWEEP_KEYS,
)
# Every key build_experiment_config reads, under any data.source.
KNOWN_KEYS = frozenset(k.name for table in _TABLES for k in table.values())
# The one data.source that reads each data key.
_KEY_SOURCE = {k.name: source for source, (_, keys) in _SOURCES.items() for k in keys.values()}
_COMMENT = re.compile(r"(?:^|\s)#")


def _unechoable(value: str) -> str | None:
    """Why a text value would not read back from its ``key = value`` line in
    config.txt, which is cut at a comment, stripped and split into lines; None
    if it would."""
    if _COMMENT.search(value):
        return "a '#' after whitespace would start a comment in config.txt"
    if value != value.strip():
        return "leading or trailing whitespace would be stripped from config.txt"
    if value.splitlines() != [value]:
        return "a line break would split its config.txt line"
    return None


def _error(lines: Mapping[str, int], key: str, message: str) -> ConfigError:
    """An error on ``key``, at its line in ``lines`` if it has one."""
    return ConfigError(f"{key}: {message}", lines.get(key))


def _first_set(lines: Mapping[str, int], *keys: _Key) -> str:
    """The first of ``keys`` that ``lines`` holds, so an error can name its line."""
    return next((key.name for key in keys if key.name in lines), keys[0].name)


@dataclass
class _RawConfig:
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def read(self, key: _Key):
        """The typed value of ``key``; an unset or empty key takes its default."""
        raw = self.values.get(key.name)
        if raw is None or raw == "":
            return key.default
        try:
            return key.parse(raw)
        except (TypeError, ValueError) as exc:
            raise _error(self.lines, key.name, f"cannot parse {raw!r}: {exc}") from exc

    def build(self, cls, keys: dict[str, _Key], **given):
        """``cls`` from the values of ``keys`` and the ``given`` fields. The class
        checks its fields, each ValueError starting with the field's name, and
        each ConfigError naming its key."""
        values = {name: self.read(key) for name, key in keys.items()}
        try:
            return cls(**{**values, **given})
        except ConfigError:
            raise
        except ValueError as exc:
            key = keys.get(str(exc).split(" ", 1)[0])
            if key is None:
                raise ConfigError(str(exc)) from exc
            raise _error(self.lines, key.name, str(exc)) from exc


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
            raise _error(raw.lines, key, "unknown key")
        if source in _SOURCES and _KEY_SOURCE.get(key, source) != source:
            message = f"a key of {_SOURCE.name} = {_KEY_SOURCE[key]}, not {source}"
            raise _error(raw.lines, key, message)

    if source not in _SOURCES:
        raise _error(raw.lines, _SOURCE.name, f"unknown source {source!r}")
    cls, keys = _SOURCES[source]
    if cls is CifarSource and raw.read(keys["path"]) is None:
        raise _error(raw.lines, _SOURCE.name, f"{source} source needs {keys['path'].name}")
    dataset = raw.build(cls, keys)
    if cls is CifarSource:
        # Relative to the config file, as output.dir is; an absolute path stays.
        dataset = replace(dataset, path=base_dir / dataset.path)

    # A model size the text leaves unset is the data source's; ExperimentConfig checks a set one.
    unset = [f for f in ("feature_dim", "num_classes") if raw.read(_MODEL_KEYS[f]) is None]
    model = raw.build(ModelSpec, _MODEL_KEYS, **{f: getattr(dataset, f) for f in unset})
    scenario = raw.build(ScenarioConfig, _SCENARIO_KEYS, model=model)

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


def load_config(path: Path | str) -> ExperimentConfig:
    """The config at ``path``, which keeps the line of each key for
    :func:`preflight` to name; the file is read once, so it may be a pipe."""
    path = Path(path)
    raw = parse_config_text(path.read_text(encoding="utf-8"))
    return build_experiment_config(raw, base_dir=path.resolve().parent)


def preflight(cfg: ExperimentConfig, seed: int) -> Setup:
    """``seed``'s set-up: its test set, block of node rows and their probe result. A
    :class:`ConfigError` names the key, and its line if ``cfg`` was read from text,
    if the seed cannot run past it; a probe failure under ``init`` is a ValueError.

    The set-up is the run's first phase: :func:`flsim.node_datasets`, the first
    of which loads the CIFAR-10 batches the run reuses, then
    :func:`flsim.probe_phase`. A fault is told apart by its exception class.
    The seeds are known only once ``FEDBOUND_SEED`` has been applied, so
    :func:`load_config` does not call it.
    """
    lines, s, d, c = cfg.lines, _SCENARIO_KEYS, _SYNTHETIC_KEYS, _CIFAR_KEYS
    if isinstance(cfg.dataset, CifarSource):
        pool, more = (c["path"],), ""
    else:
        pool = (d["samples_per_class"], d["num_classes"])
        more = f"raise {d['samples_per_class'].name} or "
    scenario = replace(cfg.scenario, seed=seed)
    try:
        test_data, rows = node_datasets(cfg.dataset, scenario)
    except (OSError, CifarFormatError) as exc:
        raise _error(lines, c["path"].name, str(exc)) from exc
    except ClassCentersError as exc:
        key = _first_set(lines, d["feature_dim"], d["num_classes"], d["separation"])
        advice = f"lower {d['separation'].name}, raise {d['feature_dim'].name} or use fewer classes"
        raise _error(lines, key, f"{exc} for seed {seed}; {advice}") from exc
    except ShortfallError as exc:
        short = (s["samples_per_node"], s["n_nodes"], *pool)
        raise _error(
            lines,
            _first_set(lines, *([s["missing_classes"]] if scenario.missing_classes else short)),
            f"seed {seed}: {exc}; {more}lower {s['samples_per_node'].name}",
        ) from exc
    except EmptyTestSplitError as exc:
        raise _error(lines, _first_set(lines, s["test_fraction"], pool[0]), str(exc)) from exc
    try:
        return Setup(scenario, test_data, rows, probe_phase(scenario, rows))
    except ProbeFailure as exc:
        if scenario.probe_sampler == "init":
            raise ValueError(f"seed {seed} failed: {exc}") from exc
        name = s["perturb_sigma"].name
        advice = "raise" if isinstance(exc.__cause__, DegeneratePairError) else "lower"
        raise _error(lines, name, f"seed {seed}, {exc}; {advice} {name}") from exc


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

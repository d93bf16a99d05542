"""Plain-text experiment configuration.

The format is one ``key = value`` per line with ``#`` comments and dotted
keys for nesting; no external parser needed. Validation errors carry the
offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .data import SyntheticSpec
from .flsim import PROBE_SAMPLER_KINDS, ScenarioConfig, held_out_size
from .model import mlp_spec, softmax_spec
from .probe import G_FORMULAS

_MODEL_KIND_ALIASES = {
    "softmax": "softmax",
    "softmax-regression": "softmax",
    "mlp": "mlp",
    "one-hidden-layer-mlp": "mlp",
}

# Every key build_experiment_config reads, under any data.source.
KNOWN_KEYS = frozenset(
    {
        "data.source",
        "data.num_classes",
        "data.feature_dim",
        "data.samples_per_class",
        "data.separation",
        "data.noise_sigma",
        "data.label_skew",
        "data.noise_mult",
        "data.feature_scale",
        "data.cifar_path",
        "data.cifar_pool",
        "data.cifar_grayscale",
        "model.kind",
        "model.l2",
        "model.hidden_width",
        "scenario.name",
        "scenario.n_nodes",
        "scenario.samples_per_node",
        "scenario.rounds",
        "scenario.lr",
        "scenario.batch_size",
        "scenario.local_epochs_per_round",
        "scenario.missing_classes",
        "scenario.test_fraction",
        "scenario.seed",
        "probe.n_probes",
        "probe.sampler",
        "probe.perturb_sigma",
        "probe.g_formula",
        "bound.squared_distance",
        "output.dir",
        "repeat_seeds",
        "selection.k",
    }
)


# SyntheticSpec and ScenarioConfig start each error message with the name of
# the field at fault, which is the last part of the key that sets it.
_KEY_OF_FIELD = {key.rsplit(".", 1)[-1]: key for key in KNOWN_KEYS}


class ConfigError(ValueError):
    """Config problem with a pointer to the source line."""

    def __init__(self, message: str, line: int | None = None):
        location = f"line {line}: " if line is not None else ""
        super().__init__(f"{location}{message}")
        self.line = line


@dataclass(frozen=True)
class CifarSource:
    path: Path
    pool: int = 1
    grayscale: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario plus dataset source, output location, and repeat seeds."""

    scenario: ScenarioConfig
    dataset: SyntheticSpec | CifarSource
    output_dir: Path
    repeat_seeds: tuple[int, ...]
    scenario_name: str = "default"
    selection_k: int | None = None

    def __post_init__(self):
        if not self.repeat_seeds:
            raise ValueError("repeat_seeds must be nonempty")
        # Two runs of one seed would write one run directory twice.
        twice = [s for i, s in enumerate(self.repeat_seeds) if s in self.repeat_seeds[:i]]
        if twice:
            raise ValueError(
                f"repeat_seeds must be distinct; seed {twice[0]} is listed more than once"
            )


@dataclass
class _RawConfig:
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def error(self, key: str, message: str):
        return ConfigError(f"{key}: {message}", self.lines.get(key))

    def field_error(self, exc: ValueError) -> ConfigError:
        """A field validation error, pointing at the line of the key that set it."""
        key = _KEY_OF_FIELD.get(str(exc).split(" ", 1)[0])
        if key is None:
            return ConfigError(str(exc))
        return self.error(key, str(exc))

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def typed(self, key: str, caster, default):
        raw = self.values.get(key)
        if raw is None or raw == "":
            return default
        try:
            return caster(raw)
        except (TypeError, ValueError) as exc:
            raise self.error(key, f"cannot parse {raw!r}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def parse_config_text(text: str) -> _RawConfig:
    """Parse ``key = value`` lines; later assignments override earlier ones."""
    raw = _RawConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
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
    # The first unknown key in file order, so a typo fails before any work.
    for key in sorted(raw.values, key=lambda key: raw.lines.get(key, 0)):
        if key not in KNOWN_KEYS:
            raise raw.error(key, "unknown key")

    source = raw.get("data.source", "synthetic")
    if source == "synthetic":
        knobs = dict(
            num_classes=raw.typed("data.num_classes", int, 4),
            feature_dim=raw.typed("data.feature_dim", int, 8),
            samples_per_class=raw.typed("data.samples_per_class", int, 400),
            separation=raw.typed("data.separation", float, 0.7),
            noise_sigma=raw.typed("data.noise_sigma", float, 0.12),
            label_skew=raw.typed("data.label_skew", _parse_float_list, ()),
            noise_mult=raw.typed("data.noise_mult", _parse_float_list, ()),
            feature_scale=raw.typed("data.feature_scale", _parse_float_list, ()),
        )
        try:
            dataset = SyntheticSpec(**knobs)
        except ValueError as exc:
            raise raw.field_error(exc) from exc
        num_classes = dataset.num_classes
        feature_dim = dataset.feature_dim
    elif source == "cifar10":
        path = raw.get("data.cifar_path")
        if not path:
            raise raw.error("data.source", "cifar10 source needs data.cifar_path")
        pool = raw.typed("data.cifar_pool", int, 1)
        grayscale = raw.typed("data.cifar_grayscale", _parse_bool, False)
        if pool < 1 or 32 % pool != 0:
            raise raw.error("data.cifar_pool", f"pool {pool} must divide 32")
        dataset = CifarSource(Path(path), pool, grayscale)
        num_classes = 10
        channels = 1 if grayscale else 3
        feature_dim = channels * (32 // pool) ** 2
    else:
        raise raw.error("data.source", f"unknown source {source!r}")

    kind_raw = raw.get("model.kind", "softmax")
    kind = _MODEL_KIND_ALIASES.get(kind_raw)
    if kind is None:
        raise raw.error("model.kind", f"unknown model kind {kind_raw!r}")
    l2 = raw.typed("model.l2", float, 0.01)
    hidden = raw.typed("model.hidden_width", int, 16)
    if kind == "softmax":
        model = softmax_spec(feature_dim, num_classes, l2=l2)
    else:
        model = mlp_spec(feature_dim, num_classes, hidden, l2=l2)

    missing = raw.typed("scenario.missing_classes", _parse_int_list, ())
    for c in missing:
        if c < 0 or c >= num_classes:
            raise raw.error(
                "scenario.missing_classes", f"class {c} outside [0, {num_classes})"
            )

    sampler = raw.get("probe.sampler", "init")
    if sampler not in PROBE_SAMPLER_KINDS:
        raise raw.error("probe.sampler", f"must be one of {PROBE_SAMPLER_KINDS}")
    g_formula = raw.get("probe.g_formula", "gradient-norm")
    if g_formula not in G_FORMULAS:
        raise raw.error("probe.g_formula", f"must be one of {G_FORMULAS}")

    settings = dict(
        n_nodes=raw.typed("scenario.n_nodes", int, 5),
        samples_per_node=raw.typed("scenario.samples_per_node", int, 200),
        rounds=raw.typed("scenario.rounds", int, 30),
        model=model,
        lr=raw.typed("scenario.lr", float, 0.05),
        batch_size=raw.typed("scenario.batch_size", int, 32),
        local_epochs_per_round=raw.typed("scenario.local_epochs_per_round", int, 1),
        missing_classes=frozenset(missing),
        test_fraction=raw.typed("scenario.test_fraction", float, 0.1),
        n_probes=raw.typed("probe.n_probes", int, 100),
        probe_sampler=sampler,
        perturb_sigma=raw.typed("probe.perturb_sigma", float, 0.1),
        g_formula=g_formula,
        squared_distance=raw.typed("bound.squared_distance", _parse_bool, False),
        seed=raw.typed("scenario.seed", int, 0),
    )
    try:
        scenario = ScenarioConfig(**settings)
    except ValueError as exc:
        raise raw.field_error(exc) from exc
    _check_sizes(raw, scenario, dataset)

    out = raw.get("output.dir", "runs")
    out_path = Path(out)
    if not out_path.is_absolute():
        out_path = base_dir / out_path
    repeat_seeds = raw.typed("repeat_seeds", _parse_int_list, (scenario.seed,))
    if not repeat_seeds:
        raise raw.error("repeat_seeds", "must name at least one seed")
    selection_k = raw.typed("selection.k", int, None)
    if selection_k is not None and not 1 <= selection_k <= scenario.n_nodes:
        raise raw.error("selection.k", f"must lie in [1, {scenario.n_nodes}]")

    try:
        return ExperimentConfig(
            scenario=scenario,
            dataset=dataset,
            output_dir=out_path,
            repeat_seeds=repeat_seeds,
            scenario_name=raw.get("scenario.name", "default"),
            selection_k=selection_k,
        )
    except ValueError as exc:
        raise raw.field_error(exc) from exc


def _first_set(raw: _RawConfig, *keys: str) -> str:
    """The first of ``keys`` the config sets, so an error can name its line."""
    return next((key for key in keys if key in raw.lines), keys[0])


def _check_sizes(
    raw: _RawConfig, scenario: ScenarioConfig, dataset: SyntheticSpec | CifarSource
) -> None:
    """Reject sizes that would otherwise fail only once a run has started."""
    if scenario.batch_size > scenario.samples_per_node:
        raise raw.error(
            _first_set(raw, "scenario.batch_size", "scenario.samples_per_node"),
            f"batch_size {scenario.batch_size} exceeds samples_per_node "
            f"{scenario.samples_per_node}; it must lie in [1, {scenario.samples_per_node}]",
        )
    if len(scenario.missing_classes) == scenario.model.num_classes:
        raise raw.error(
            "scenario.missing_classes", "lists every class, which leaves no training data"
        )
    if isinstance(dataset, CifarSource):
        empty = scenario.test_fraction == 0.0
    else:
        for key in ("data.label_skew", "data.noise_mult", "data.feature_scale"):
            entries = getattr(dataset, key.split(".")[1])
            if entries and len(entries) != scenario.n_nodes:
                raise raw.error(
                    key,
                    f"needs {scenario.n_nodes} entries, one per node "
                    f"(scenario.n_nodes = {scenario.n_nodes}), got {len(entries)}",
                )
        # Per-node synthetic generation always draws at least one test row; a
        # partitioned dataset holds out a share of its rows, which may round to 0.
        n_rows = dataset.num_classes * dataset.samples_per_class
        n_test = held_out_size(scenario, n_rows)
        empty = not dataset.has_node_knobs and n_test == 0
        # What partition_dataset leaves for the nodes is known here unless
        # missing classes filter it by the random test split.
        need = scenario.n_nodes * scenario.samples_per_node
        if not (dataset.has_node_knobs or scenario.missing_classes) and n_rows - n_test < need:
            raise raw.error(
                _first_set(
                    raw, "scenario.samples_per_node", "scenario.n_nodes",
                    "data.samples_per_class", "data.num_classes",
                ),
                f"n_nodes x samples_per_node = {need} training rows, but the synthetic "
                f"pool of {n_rows} rows (num_classes x samples_per_class) leaves "
                f"{n_rows - n_test} after holding out {n_test} for testing",
            )
    if empty:
        raise raw.error(
            _first_set(raw, "scenario.test_fraction", "data.samples_per_class"),
            f"test_fraction {scenario.test_fraction:g} leaves the test split empty",
        )


def load_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    raw = parse_config_text(path.read_text(encoding="utf-8"))
    return build_experiment_config(raw, base_dir=path.resolve().parent)

"""Run configuration: one JSON document, explicit defaults, strict parsing.

Every field that reaches a manifest is resolved here, so a dumped config
re-runs the exact experiment. The dataclass fields are the only schema:
the parser checks the shape of the JSON (unknown keys, required fields,
each value's JSON type against its field's annotation) and stores float
fields as floats; each dataclass checks its own values in __post_init__,
raising "<field>: <reason>", and the parser puts the field's path in
front of that.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, \
    replace

from .datastream import SplitRule, SyntheticSpec, TaskStream, gen_synthetic, \
    load_feature_bank
from .encoder import EncoderConfig
from .errors import ConfigError
from .sevpr import VARIANTS
from .sgakt import STRATEGIES

BETA_TASK_INDEX = "task-index"


@dataclass(frozen=True)
class DataConfig:
    """Exactly one of synthetic or bank supplies the task stream."""

    synthetic: SyntheticSpec | None = None
    bank: SplitRule | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.bank is None):
            raise ConfigError("synthetic/bank: exactly one is required")

    @property
    def seed(self) -> int:
        return (self.synthetic or self.bank).seed

    def reseed(self, seed: int) -> "DataConfig":
        if self.synthetic:
            return replace(self, synthetic=replace(self.synthetic, seed=seed))
        return replace(self, bank=replace(self.bank, seed=seed))


def build_stream(data: DataConfig) -> TaskStream:
    if data.synthetic:
        return gen_synthetic(data.synthetic)
    return load_feature_bank(data.bank)


@dataclass(frozen=True)
class RunConfig:
    tau: float = 0.01
    tau_prime: float = 20.0
    agg_lambda: float = 1.0
    affinity_gamma: float = 1.0
    utility_momentum: float = 0.99
    kl_epsilon: float = 1e-8
    pool_max: int | None = 5
    beta: float | str = BETA_TASK_INDEX
    lr: float = 0.001
    epochs_per_task: int = 10
    batch_size: int = 64
    seed: int = 0
    replay: bool = False
    replay_full_cov: bool = False
    distill: str = "sg_akt"
    classifier: str = "se_vpr"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    data: DataConfig = field(
        default_factory=lambda: DataConfig(synthetic=SyntheticSpec()))

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if "float" in f.type and not isinstance(val, str) \
                    and not math.isfinite(val):
                raise ConfigError(f"{f.name}: must be finite")
        positive = ("tau", "tau_prime", "kl_epsilon", "lr", "batch_size")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("agg_lambda", "affinity_gamma", "epochs_per_task"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} must be non-negative")
        if not 0.0 <= self.utility_momentum <= 1.0:
            raise ConfigError("utility_momentum: must lie in [0, 1]")
        if self.pool_max is not None and self.pool_max < 1:
            raise ConfigError("pool_max: must be >= 1 or ALL")
        if isinstance(self.beta, str):
            if self.beta != BETA_TASK_INDEX:
                raise ConfigError(f"beta: unknown schedule {self.beta!r}")
        elif self.beta < 0:
            raise ConfigError("beta: constant must be non-negative")
        if self.distill not in STRATEGIES:
            raise ConfigError(f"distill: unknown strategy {self.distill!r}")
        if self.classifier not in VARIANTS:
            raise ConfigError(f"classifier: unknown variant {self.classifier!r}")
        if self.encoder.d_v != self.encoder.d_t:
            # the hybrid score compares visual features, text features, and
            # replayed pseudo features through one cosine, so the towers
            # must share a width
            raise ConfigError("encoder.d_t: must equal encoder.d_v")


def beta_value(cfg: RunConfig, task: int) -> float:
    if cfg.beta == BETA_TASK_INDEX:
        return float(task)
    return float(cfg.beta)


# the JSON types each scalar annotation (a string, as annotations are
# postponed) takes; a float field also takes integers and stores a float
_JSON = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _number(val) -> float:
    try:
        return float(val)
    except OverflowError:  # an integer past the float range
        return math.inf


def _build(cls, obj, path: str, **nested):
    """Dataclass ``cls`` from JSON object ``obj`` at config path ``path``.

    Each field is checked against its annotation; ``nested`` maps the
    fields that are not plain scalars to a ``parse(value, path)`` of their
    own. Fields without a default must be present. The dataclass checks
    the values, and its "<field>: <reason>" errors get ``path`` in front.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    prefix = path + "." if path else ""
    known = fields(cls)
    names = {f.name for f in known}
    for key in obj:
        if key not in names:
            raise ConfigError(f"{prefix}{key}: unknown field")
    required = [f.name for f in known
                if f.default is MISSING and f.default_factory is MISSING]
    if not set(required) <= set(obj):
        raise ConfigError(f"{path}: {' and '.join(required)} are required")
    out = {}
    for f in known:
        if f.name not in obj:
            continue
        val, where = obj[f.name], prefix + f.name
        if f.name in nested:
            out[f.name] = nested[f.name](val, where)
            continue
        kinds = _JSON[f.type]
        if isinstance(val, bool) and bool not in kinds \
                or not isinstance(val, kinds):
            raise ConfigError(f"{where}: wrong type")
        out[f.name] = _number(val) if float in kinds else val
    try:
        return cls(**out)
    except ConfigError as e:
        raise ConfigError(prefix + str(e)) from None


def _pool_max(val, where: str) -> int | None:
    if val == "ALL" or val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}: wrong type (int, ALL, or null)")
    return val


def _beta(val, where: str) -> float | str:
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise ConfigError(f"{where}: wrong type (number or schedule name)")
    return val if isinstance(val, str) else _number(val)


def _nested(cls, **nested):
    return lambda val, where: _build(cls, val, where, **nested)


def parse_config(obj) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    data = _nested(DataConfig, synthetic=_nested(SyntheticSpec),
                   bank=_nested(SplitRule))
    return _build(RunConfig, obj, "", pool_max=_pool_max, beta=_beta,
                  encoder=_nested(EncoderConfig), data=data)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from None
    return parse_config(obj)


def config_dict(cfg: RunConfig) -> dict:
    """Fully resolved config as plain JSON types; round-trips via parse."""
    out = asdict(cfg)
    out["pool_max"] = "ALL" if cfg.pool_max is None else cfg.pool_max
    out["data"] = {k: v for k, v in out["data"].items() if v is not None}
    return out

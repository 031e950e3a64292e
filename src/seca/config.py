"""Run configuration: one JSON document, explicit defaults, strict parsing.

Every field that reaches a manifest is resolved here, so a dumped config
re-runs the exact experiment. The dataclass fields are the only schema: a
JSON value is checked against its field's annotation, numbers must be
finite, and float fields are stored as floats. Unknown keys, type
mismatches and non-finite numbers are rejected with the offending field
path in the message.
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
class BankSource:
    path: str
    num_tasks: int
    train_fraction: float = 0.8
    seed: int = 0


@dataclass(frozen=True)
class DataConfig:
    """Exactly one of synthetic or bank supplies the task stream."""

    synthetic: SyntheticSpec | None = field(default_factory=SyntheticSpec)
    bank: BankSource | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.bank is None):
            raise ConfigError("data: exactly one of synthetic/bank required")

    @property
    def seed(self) -> int:
        return self.synthetic.seed if self.synthetic else self.bank.seed

    def reseed(self, seed: int) -> "DataConfig":
        if self.synthetic:
            return DataConfig(synthetic=replace(self.synthetic, seed=seed))
        return DataConfig(synthetic=None, bank=replace(self.bank, seed=seed))


def build_stream(data: DataConfig) -> TaskStream:
    if data.synthetic:
        return gen_synthetic(data.synthetic)
    bank = data.bank
    rule = SplitRule(bank.num_tasks, bank.train_fraction, bank.seed)
    return load_feature_bank(bank.path, rule)


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
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        # here as well as in the parser: configs built in code skip the parser
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


def _number(val, where: str) -> float:
    try:
        val = float(val)
    except OverflowError:  # an integer past the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    return val


def _fields(cls, obj, path: str, **nested) -> dict:
    """The fields of dataclass ``cls`` given in JSON object ``obj``.

    Each field is checked against its annotation; ``nested`` maps the
    fields that are not plain scalars to a ``parse(value, path)`` of their
    own. Fields without a default must be present.
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
        out[f.name] = _number(val, where) if float in kinds else val
    return out


def _pool_max(val, where: str) -> int | None:
    if val == "ALL" or val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}: wrong type (int, ALL, or null)")
    return val


def _beta(val, where: str) -> float | str:
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise ConfigError(f"{where}: wrong type (number or schedule name)")
    return val if isinstance(val, str) else _number(val, where)


def _synthetic(val, where: str) -> SyntheticSpec:
    got = _fields(SyntheticSpec, val, where)
    try:
        return SyntheticSpec(**got)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _data(val, where: str) -> DataConfig:
    got = _fields(DataConfig, val, where, synthetic=_synthetic,
                  bank=lambda v, p: BankSource(**_fields(BankSource, v, p)))
    return DataConfig(**{"synthetic": None, **got})


def parse_config(obj) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    return RunConfig(**_fields(
        RunConfig, obj, "", pool_max=_pool_max, beta=_beta,
        encoder=lambda v, p: EncoderConfig(**_fields(EncoderConfig, v, p)),
        data=_data))


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from None
    cfg = parse_config(obj)
    # only a config file is held to this: RunConfig and checkpoints allow
    # a stream built apart from cfg.data, which state_for_stream checks
    synth = cfg.data.synthetic
    if synth is not None and synth.dim != cfg.encoder.d_v:
        raise ConfigError(f"data.synthetic.dim: {synth.dim} must equal "
                          f"encoder.d_v ({cfg.encoder.d_v})")
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    """Fully resolved config as plain JSON types; round-trips via parse."""
    out = asdict(cfg)
    out["pool_max"] = "ALL" if cfg.pool_max is None else cfg.pool_max
    data = {}
    if cfg.data.synthetic:
        data["synthetic"] = asdict(cfg.data.synthetic)
    else:
        data["bank"] = asdict(cfg.data.bank)
    out["data"] = data
    return out

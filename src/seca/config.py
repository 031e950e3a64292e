"""Run configuration: one JSON document, explicit defaults, strict parsing.

Every field that reaches a manifest is resolved here, so a dumped config
re-runs the exact experiment. Unknown keys and type mismatches are rejected
with the offending field path in the message.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

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


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown field")


def _get(obj: dict, key: str, kinds, path: str, default):
    if key not in obj:
        return default
    val = obj[key]
    if isinstance(val, bool) and bool not in kinds:
        raise ConfigError(f"{path}{key}: wrong type")
    if not isinstance(val, tuple(kinds)):
        raise ConfigError(f"{path}{key}: wrong type")
    return val


_NUM = [int, float]  # numbers; top-level ones are stored as floats
_ENCODER_KEYS = ("d_v", "d_t", "layers", "adapter_width", "prompt_tokens",
                 "seed")
_SYNTH_KEYS = ("num_tasks", "classes_per_task", "dim", "superclasses",
               "mean_correlation", "noise", "train_per_class",
               "test_per_class", "seed")
_SYNTH_FLOATS = ("mean_correlation", "noise")
_BANK_KINDS = {"path": [str], "num_tasks": [int], "train_fraction": _NUM,
               "seed": [int]}


def _parse_encoder(obj, path: str) -> EncoderConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    d = EncoderConfig()
    _check_keys(obj, _ENCODER_KEYS, path + ".")
    return EncoderConfig(**{k: _get(obj, k, [int], path + ".", getattr(d, k))
                            for k in _ENCODER_KEYS})


def _parse_data(obj, path: str) -> DataConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(obj, ("synthetic", "bank"), path + ".")
    if ("synthetic" in obj) == ("bank" in obj):
        raise ConfigError(f"{path}: exactly one of synthetic/bank required")
    if "synthetic" in obj:
        sub, subpath = obj["synthetic"], path + ".synthetic."
        if not isinstance(sub, dict):
            raise ConfigError(f"{path}.synthetic: expected an object")
        d = SyntheticSpec()
        _check_keys(sub, _SYNTH_KEYS, subpath)
        try:
            spec = SyntheticSpec(**{
                k: _get(sub, k, _NUM if k in _SYNTH_FLOATS else [int],
                        subpath, getattr(d, k))
                for k in _SYNTH_KEYS})
        except ConfigError as e:
            raise ConfigError(f"data.synthetic: {e}") from None
        return DataConfig(synthetic=spec)
    sub, subpath = obj["bank"], path + ".bank."
    if not isinstance(sub, dict):
        raise ConfigError(f"{path}.bank: expected an object")
    _check_keys(sub, _BANK_KINDS, subpath)
    if "path" not in sub or "num_tasks" not in sub:
        raise ConfigError(f"{path}.bank: path and num_tasks are required")
    return DataConfig(synthetic=None, bank=BankSource(**{
        k: _get(sub, k, kinds, subpath, None)
        for k, kinds in _BANK_KINDS.items() if k in sub}))


# the top-level scalar fields and the JSON types each takes, in check order
_SCALARS = (("tau", _NUM), ("tau_prime", _NUM), ("agg_lambda", _NUM),
            ("affinity_gamma", _NUM), ("utility_momentum", _NUM),
            ("kl_epsilon", _NUM), ("lr", _NUM), ("epochs_per_task", [int]),
            ("batch_size", [int]), ("seed", [int]), ("replay", [bool]),
            ("replay_full_cov", [bool]), ("distill", [str]),
            ("classifier", [str]))
_TOP_KEYS = tuple(k for k, _ in _SCALARS) + ("pool_max", "beta", "encoder",
                                              "data")


def parse_config(obj) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    _check_keys(obj, _TOP_KEYS, "")
    d = RunConfig()
    pool_max = obj.get("pool_max", d.pool_max)
    if pool_max == "ALL" or pool_max is None:
        pool_max = None
    elif isinstance(pool_max, bool) or not isinstance(pool_max, int):
        raise ConfigError("pool_max: wrong type (int, ALL, or null)")
    beta = obj.get("beta", d.beta)
    if not isinstance(beta, (int, float, str)) or isinstance(beta, bool):
        raise ConfigError("beta: wrong type (number or schedule name)")
    if isinstance(beta, (int, float)):
        beta = float(beta)
    fields = {}
    for key, kinds in _SCALARS:
        val = _get(obj, key, kinds, "", getattr(d, key))
        fields[key] = float(val) if kinds is _NUM else val
    return RunConfig(
        pool_max=pool_max, beta=beta, **fields,
        encoder=_parse_encoder(obj["encoder"], "encoder")
        if "encoder" in obj else EncoderConfig(),
        data=_parse_data(obj["data"], "data") if "data" in obj else DataConfig(),
    )


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

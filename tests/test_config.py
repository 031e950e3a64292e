"""Strict JSON config parsing, validation, and round-tripping."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seca.config import BETA_TASK_INDEX, DataConfig, RunConfig, beta_value, \
    build_stream, config_dict, load_config, parse_config
from seca.datastream import SplitRule, SyntheticSpec, write_feature_bank
from seca.encoder import EncoderConfig
from seca.errors import ConfigError
from seca.sevpr import VARIANTS
from seca.sgakt import STRATEGIES
from seca.trainer import state_for_stream


def _floats(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _ints(lo, hi=2 ** 64):
    return st.integers(lo, hi)


# every valid value of every field of the four config dataclasses
_POSITIVE = _floats(0.0, exclude_min=True)
_NON_NEGATIVE = _floats(0.0)
_ENCODERS = _ints(1, 512).flatmap(lambda width: st.builds(
    EncoderConfig, d_v=st.just(width), d_t=st.just(width),
    layers=_ints(1), adapter_width=_ints(1), prompt_tokens=_ints(1),
    seed=_ints(0)))
_SYNTHETIC = st.builds(
    SyntheticSpec, num_tasks=_ints(1, 20), classes_per_task=_ints(1, 10),
    dim=_ints(8), superclasses=_ints(1), mean_correlation=_floats(0.0, 1.0),
    noise=_NON_NEGATIVE, train_per_class=_ints(1), test_per_class=_ints(1),
    seed=_ints(0))
_BANKS = st.builds(SplitRule, path=st.text(), num_tasks=_ints(1),
                   train_fraction=_floats(0.0, 1.0, exclude_min=True,
                                          exclude_max=True),
                   seed=_ints(0))
_DATA = st.builds(DataConfig, synthetic=_SYNTHETIC) \
    | st.builds(DataConfig, synthetic=st.none(), bank=_BANKS)
_CONFIGS = st.builds(
    RunConfig, tau=_POSITIVE, tau_prime=_POSITIVE, agg_lambda=_NON_NEGATIVE,
    affinity_gamma=_NON_NEGATIVE, utility_momentum=_floats(0.0, 1.0),
    kl_epsilon=_POSITIVE, pool_max=st.none() | _ints(1),
    beta=_NON_NEGATIVE | st.just(BETA_TASK_INDEX), lr=_POSITIVE,
    epochs_per_task=_ints(0), batch_size=_ints(1), seed=_ints(0),
    replay=st.booleans(), replay_full_cov=st.booleans(),
    distill=st.sampled_from(STRATEGIES), classifier=st.sampled_from(VARIANTS),
    encoder=_ENCODERS, data=_DATA)

# a config holding a non-finite number, by the path of that number
_NON_FINITE = {
    "tau": {"tau": float("nan")},
    "lr": {"lr": float("inf")},
    "beta": {"beta": float("-inf")},
    "agg_lambda": {"agg_lambda": 10 ** 400},  # past the float range
    "data.synthetic.noise": {"data": {"synthetic": {"noise": float("nan")}}},
    "data.synthetic.mean_correlation":
        {"data": {"synthetic": {"mean_correlation": float("inf")}}},
    "data.bank.train_fraction": {"data": {"bank": {
        "path": "b.bin", "num_tasks": 2, "train_fraction": float("nan")}}},
}


class TestParse:
    def test_empty_object_gives_defaults(self):
        assert parse_config({}) == RunConfig()

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="expected a JSON object"):
            parse_config([1, 2])

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="bogus: unknown field"):
            parse_config({"tau": 0.5, "bogus": 1})

    def test_unknown_encoder_field_carries_path(self):
        with pytest.raises(ConfigError, match="encoder.widht: unknown field"):
            parse_config({"encoder": {"widht": 3}})

    def test_wrong_type_carries_path(self):
        with pytest.raises(ConfigError, match="encoder.d_v: wrong type"):
            parse_config({"encoder": {"d_v": "wide"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="batch_size: wrong type"):
            parse_config({"batch_size": True})

    def test_number_accepted_where_float_expected(self):
        cfg = parse_config({"tau": 1})
        assert cfg.tau == 1.0 and isinstance(cfg.tau, float)
        # at every level, not only the top, so the manifest records 1.0
        cfg = parse_config({"data": {"synthetic": {"noise": 1}}})
        assert json.dumps(config_dict(cfg)["data"]["synthetic"]["noise"]) \
            == "1.0"

    @pytest.mark.parametrize("path", list(_NON_FINITE))
    def test_non_finite_number_rejected(self, path):
        with pytest.raises(ConfigError, match=f"^{path}: must be finite$"):
            parse_config(_NON_FINITE[path])

    def test_pool_max_all_means_unbounded(self):
        assert parse_config({"pool_max": "ALL"}).pool_max is None
        assert parse_config({"pool_max": None}).pool_max is None
        assert parse_config({"pool_max": 7}).pool_max == 7

    def test_pool_max_bad_type(self):
        with pytest.raises(ConfigError, match="pool_max"):
            parse_config({"pool_max": 2.5})
        with pytest.raises(ConfigError, match="pool_max"):
            parse_config({"pool_max": True})

    def test_beta_forms(self):
        assert parse_config({"beta": 2}).beta == 2.0
        assert parse_config({"beta": 0.25}).beta == 0.25
        assert parse_config({"beta": BETA_TASK_INDEX}).beta == BETA_TASK_INDEX
        with pytest.raises(ConfigError, match="beta"):
            parse_config({"beta": "linear-warmup"})
        with pytest.raises(ConfigError, match="beta"):
            parse_config({"beta": [1]})

    def test_data_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"data": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"data": {"synthetic": {},
                                   "bank": {"path": "x", "num_tasks": 2}}})

    def test_synthetic_field_path(self):
        with pytest.raises(ConfigError, match="data.synthetic.noize"):
            parse_config({"data": {"synthetic": {"noize": 0.1}}})

    def test_bank_requires_path_and_tasks(self):
        with pytest.raises(ConfigError, match="path and num_tasks"):
            parse_config({"data": {"bank": {"path": "b.bin"}}})

    @pytest.mark.parametrize("field,value", [
        ("num_tasks", 0), ("num_tasks", -3), ("train_fraction", 0),
        ("train_fraction", 1), ("train_fraction", 1.5)])
    def test_bank_value_error_carries_path(self, field, value):
        bank = {"path": "b.bin", "num_tasks": 2, field: value}
        with pytest.raises(ConfigError, match=rf"^data\.bank\.{field}: "):
            parse_config({"data": {"bank": bank}})

    def test_bank_parse(self):
        cfg = parse_config({"data": {"bank": {
            "path": "b.bin", "num_tasks": 4, "train_fraction": 0.5, "seed": 9,
        }}})
        assert cfg.data.bank == SplitRule("b.bin", 4, 0.5, 9)
        assert cfg.data.synthetic is None
        assert cfg.data.seed == 9


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("tau", 0.0), ("tau_prime", -1.0), ("kl_epsilon", 0.0),
        ("lr", 0.0), ("batch_size", 0), ("agg_lambda", -0.5),
        ("affinity_gamma", -1.0), ("epochs_per_task", -1),
        ("utility_momentum", 1.5), ("pool_max", 0), ("beta", -1.0),
        ("distill", "gradient_surgery"), ("classifier", "knn"),
    ])
    def test_rejected_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})
        # the only check of the value: the model code trusts the config
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config({field: value})

    @pytest.mark.parametrize("cls,field", [
        (RunConfig, "tau"), (RunConfig, "tau_prime"), (RunConfig, "agg_lambda"),
        (RunConfig, "affinity_gamma"), (RunConfig, "utility_momentum"),
        (RunConfig, "kl_epsilon"), (RunConfig, "beta"), (RunConfig, "lr"),
        (SyntheticSpec, "mean_correlation"), (SyntheticSpec, "noise"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rejected_when_built_in_code(self, cls, field, value):
        # configs built in code never pass the parser's finiteness check
        with pytest.raises(ConfigError, match=f"^{field}:? must be finite$"):
            cls(**{field: value})

    @pytest.mark.parametrize("path,doc", [
        ("seed", {"seed": -3}),
        ("encoder.seed", {"encoder": {"seed": -3}}),
        ("data.synthetic.seed", {"data": {"synthetic": {"seed": -3}}}),
        ("data.bank.seed", {"data": {"bank": {"path": "b.bin", "num_tasks": 2,
                                              "seed": -3}}}),
    ])
    def test_negative_seed_names_its_path(self, path, doc):
        with pytest.raises(ConfigError,
                           match=f"^{path}: -3 must be non-negative$"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_bank_fraction_non_finite_when_built_in_code(self, value):
        with pytest.raises(ConfigError,
                           match="^train_fraction: must be finite$"):
            SplitRule("b.bin", 2, train_fraction=value)

    def test_tower_widths_must_agree(self):
        with pytest.raises(ConfigError, match="d_t"):
            RunConfig(encoder=EncoderConfig(d_v=32, d_t=16))

    def test_data_exactly_one(self):
        with pytest.raises(ConfigError, match="exactly one"):
            DataConfig(synthetic=None, bank=None)
        with pytest.raises(ConfigError, match="exactly one"):
            DataConfig(synthetic=SyntheticSpec(),
                       bank=SplitRule("b.bin", 2))

    def test_reseed(self):
        d = DataConfig(synthetic=SyntheticSpec(seed=1))
        assert d.reseed(5).seed == 5
        assert d.seed == 1
        b = DataConfig(synthetic=None, bank=SplitRule("b.bin", 2, seed=1))
        r = b.reseed(6)
        assert r.seed == 6 and r.bank.path == "b.bin"


class TestBetaValue:
    def test_task_index_schedule(self):
        cfg = RunConfig(beta=BETA_TASK_INDEX)
        assert beta_value(cfg, 1) == 1.0
        assert beta_value(cfg, 7) == 7.0

    def test_constant(self):
        assert beta_value(RunConfig(beta=0.5), 9) == 0.5
        assert beta_value(RunConfig(beta=0.0), 3) == 0.0


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(config_dict(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = RunConfig(
            tau=0.05, tau_prime=5.0, pool_max=None, beta=1.5, lr=0.01,
            epochs_per_task=3, batch_size=16, seed=11, replay=True,
            replay_full_cov=True, distill="avg_kd", classifier="linear",
            encoder=EncoderConfig(d_v=32, d_t=32, layers=3, seed=2),
            data=DataConfig(synthetic=SyntheticSpec(num_tasks=4, seed=8)),
        )
        d = config_dict(cfg)
        assert d["pool_max"] == "ALL"
        json.dumps(d)  # plain JSON types only
        assert parse_config(d) == cfg

    @given(_CONFIGS)
    def test_any_valid_config_round_trips(self, cfg):
        doc = json.loads(json.dumps(config_dict(cfg), allow_nan=False))
        assert parse_config(doc) == cfg

    def test_bank_round_trip(self):
        cfg = RunConfig(data=DataConfig(
            synthetic=None, bank=SplitRule("feat.bin", 3, 0.6, 4)))
        assert parse_config(config_dict(cfg)) == cfg


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_valid_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3, "distill": "seq"}))
        cfg = load_config(p)
        assert cfg.seed == 3 and cfg.distill == "seq"


class TestBuildStream:
    def test_synthetic(self):
        cfg = RunConfig(data=DataConfig(synthetic=SyntheticSpec(
            num_tasks=3, classes_per_task=2, dim=8, superclasses=2, seed=5)))
        stream = build_stream(cfg.data)
        assert len(stream.tasks) == 3
        assert stream.dim == 8

    def test_bank(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((40, 6)).astype(np.float32)
        labels = np.repeat(np.arange(4), 10).astype(np.int64)
        names = {k: f"class-{k}" for k in range(4)}
        path = tmp_path / "bank.bin"
        write_feature_bank(path, feats, labels, names)
        cfg = RunConfig(data=DataConfig(synthetic=None, bank=SplitRule(
            str(path), num_tasks=2, train_fraction=0.5, seed=1)))
        stream = build_stream(cfg.data)
        assert len(stream.tasks) == 2
        assert set(stream.names) == set(range(4))
        # the bank's width, 6, disagrees with the default encoder's 64
        with pytest.raises(ConfigError, match=r"data: feature dim 6 must "
                                              r"equal encoder\.d_v \(64\)"):
            state_for_stream(cfg, stream)

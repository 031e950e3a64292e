"""End-to-end command surface: exit codes, manifests, pairing, reports."""

import json
import struct

import numpy as np
import pytest

from seca import cli, trainer
from seca.codec import decode, encode, json_array
from seca.config import parse_config
from seca.datastream import write_feature_bank
from seca.errors import NumericsError

TINY = {
    "epochs_per_task": 1, "lr": 0.005, "batch_size": 8,
    "encoder": {"d_v": 16, "d_t": 16, "layers": 2, "adapter_width": 4,
                "seed": 1},
    "data": {"synthetic": {"num_tasks": 2, "classes_per_task": 2, "dim": 16,
                           "superclasses": 2, "mean_correlation": 0.2,
                           "noise": 0.05, "train_per_class": 8,
                           "test_per_class": 4, "seed": 3}},
}


def bank_doc(**fields):
    """A config whose bank source has the given fields over valid ones."""
    return {"data": {"bank": {"path": "b.bin", "num_tasks": 2, **fields}}}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture(scope="module")
def train_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def distill_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("ab-distill")
    assert cli.main(["ablate-distill", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    return out


class TestTrain:
    def test_outputs_and_manifest(self, train_dir, cfg_path):
        names = {p.name for p in train_dir.iterdir()}
        assert {"manifest.json", "metrics.csv", "summary.json",
                "run.ckpt"} <= names
        manifest = json.loads((train_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["versions"] == cli.FORMAT_VERSIONS
        # the manifest config re-runs the exact experiment
        assert parse_config(manifest["config"]) \
            == parse_config(json.loads(cfg_path.read_text()))

    def test_repeat_is_byte_identical(self, cfg_path, train_dir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out", str(again)]) == 0
        for name in ("metrics.csv", "summary.json", "manifest.json"):
            assert (again / name).read_bytes() \
                == (train_dir / name).read_bytes()

    def test_seed_override(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["train", "--config", str(cfg_path),
                             "--out", str(out), "--seed", "7"]) == 0
        assert (a / "summary.json").read_bytes() \
            == (b / "summary.json").read_bytes()
        assert json.loads((a / "manifest.json").read_text())["seed"] == 7

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"batch_sizes": 4}))
        assert cli.main(["train", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert "batch_sizes" in capsys.readouterr().err

    def test_non_finite_config_exits_2(self, tmp_path, capsys):
        # NaN noise once trained on noise-free data and exited 0
        bad = tmp_path / "nan.json"
        bad.write_text('{"data": {"synthetic": {"noise": NaN}}}')
        assert cli.main(["train", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert "data.synthetic.noise: must be finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seeds_exit_2(self, cfg_path, tmp_path, capsys):
        neg_init = tmp_path / "init.json"
        neg_init.write_text(json.dumps({**TINY, "seed": -1}))
        neg_data = tmp_path / "data.json"
        neg_data.write_text(json.dumps({**TINY, "data": {"synthetic": {
            **TINY["data"]["synthetic"], "seed": -3}}}))
        out = str(tmp_path / "o")
        for argv, seed in (
                (["train", "--config", str(neg_init), "--out", out], -1),
                (["train", "--config", str(neg_data), "--out", out], -3),
                (["train", "--config", str(cfg_path), "--seed", "-2",
                  "--out", out], -2),
                (["theory-check", "--seed", "-2", "--out", out], -2)):
            assert cli.main(argv) == 2
            assert f"seed: {seed} must be non-negative" \
                in capsys.readouterr().err
            assert not (tmp_path / "o" / "summary.json").exists()
            assert not (tmp_path / "o" / "theory.json").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_missing_bank_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bank.json"
        cfg.write_text(json.dumps({
            "data": {"bank": {"path": str(tmp_path / "absent.bin"),
                              "num_tasks": 2}},
        }))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()
        # a bank whose class 3 has one sample, which cannot be split
        write_feature_bank(tmp_path / "b.bin", np.ones((7, 64)),
                           np.array([0, 0, 1, 1, 2, 2, 3]),
                           {k: str(k) for k in range(4)})
        cfg.write_text(json.dumps({
            "data": {"bank": {"path": str(tmp_path / "b.bin"),
                              "num_tasks": 2}},
        }))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert "class 3 needs at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc,message", [
        *[(bank_doc(num_tasks=n), "data.bank.num_tasks: must be at least 1")
          for n in (0, -3)],
        *[(bank_doc(train_fraction=f),
           "data.bank.train_fraction: must lie strictly in (0, 1)")
          for f in (0, 1, 1.5)],
        ({"data": {"synthetic": {"noise": -0.5}}},
         "data.synthetic.noise: must be non-negative"),
        ({"encoder": {"d_v": 0}}, "encoder.d_v: must be >= 1"),
        ({"tau": float("nan")}, "tau: must be finite"),
        ({"seed": -1}, "seed: -1 must be non-negative"),
        ({"encoder": {"seed": -2}}, "encoder.seed: -2 must be non-negative"),
        ({"data": {"synthetic": {"seed": -3}}},
         "data.synthetic.seed: -3 must be non-negative"),
        (bank_doc(seed=-4), "data.bank.seed: -4 must be non-negative"),
    ], ids=["num_tasks-0", "num_tasks--3", "train_fraction-0",
            "train_fraction-1", "train_fraction-1.5", "noise", "d_v", "tau",
            "seed", "encoder.seed", "synthetic.seed", "bank.seed"])
    def test_bad_value_names_its_path(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["synthetic", "bank"])
    def test_data_dim_disagreeing_with_encoder_exits_2(self, tmp_path, capsys,
                                                       source):
        # the encoder keeps its default width, 64
        if source == "synthetic":
            data = {"synthetic": {"num_tasks": 2, "dim": 8}}
        else:
            write_feature_bank(tmp_path / "b.bin", np.ones((8, 8)),
                               np.repeat(np.arange(4), 2),
                               {k: str(k) for k in range(4)})
            data = {"bank": {"path": str(tmp_path / "b.bin"),
                             "num_tasks": 2, "train_fraction": 0.5}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": data}))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "encoder.d_v" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_exits_2(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["train", "--config", str(cfg_path),
                      "--out", str(tmp_path / "o"), "--bogus"])
        assert e.value.code == 2


class TestEval:
    def test_checkpoint_evaluation(self, train_dir, tmp_path):
        out = tmp_path / "ev"
        assert cli.main(["eval", "--ckpt", str(train_dir / "run.ckpt"),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["tasks"] == 2
        assert 0.0 <= doc["overall"] <= 100.0
        assert len(doc["per_task"]) == 2

    def test_one_scorer_serves_every_task(self, train_dir, tmp_path,
                                          monkeypatch):
        # the prompts' text features and the refinement are built once per
        # checkpoint, not once per task
        calls = []

        def counted(state):
            calls.append(state.task)
            return scorer(state)

        scorer = trainer._scorer
        monkeypatch.setattr(trainer, "_scorer", counted)
        assert cli.main(["eval", "--ckpt", str(train_dir / "run.ckpt"),
                         "--out", str(tmp_path / "ev")]) == 0
        assert calls == [2]

    def test_corrupt_checkpoint_exits_3(self, train_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((train_dir / "run.ckpt").read_bytes()[:40])
        assert cli.main(["eval", "--ckpt", str(bad),
                         "--out", str(tmp_path / "o")]) == 3

    def test_missing_bank_leaves_no_eval_dir(self, cfg_path, tmp_path):
        gen, run, ev = tmp_path / "gen", tmp_path / "run", tmp_path / "ev"
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", str(gen)]) == 0
        cfg = json.loads(cfg_path.read_text())
        cfg["data"] = {"bank": {"path": str(gen / "bank.bin"),
                                "num_tasks": 2}}
        bank_cfg = tmp_path / "bank.json"
        bank_cfg.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bank_cfg),
                         "--out", str(run)]) == 0
        (gen / "bank.bin").unlink()
        assert cli.main(["eval", "--ckpt", str(run / "run.ckpt"),
                         "--out", str(ev)]) == 3
        assert not ev.exists()

    def test_relative_bank_path_from_another_directory(self, cfg_path,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # the bank path is read from the working directory, so the same
        # checkpoint cannot find its bank from the directory above
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", "gen"]) == 0
        cfg = {**TINY, "data": {"bank": {"path": "gen/bank.bin",
                                         "num_tasks": 2}}}
        (work / "bank.json").write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", "bank.json",
                         "--out", "run"]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", "work/run/run.ckpt",
                         "--out", "ev"]) == 3
        err = capsys.readouterr().err
        assert "data.bank.path gen/bank.bin" in err
        assert "read from the working directory" in err
        assert not (tmp_path / "ev").exists()

    def test_meta_disagreeing_with_the_config_exits_3(self, train_dir,
                                                      tmp_path):
        # a registry seed other than the config's data seed used to load
        # and score with another class-token table
        arrays = decode((train_dir / "run.ckpt").read_bytes(),
                        trainer.CKPT_MAGIC, trainer.CKPT_VERSION, "checkpoint")
        meta = json.loads(arrays["meta"].tobytes())
        arrays["meta"] = json_array({**meta, "registry_seed": 7})
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(encode(arrays, trainer.CKPT_MAGIC,
                               trainer.CKPT_VERSION))
        assert cli.main(["eval", "--ckpt", str(bad),
                         "--out", str(tmp_path / "ev")]) == 3
        assert not (tmp_path / "ev").exists()

    def test_bank_of_another_width_exits_2(self, tmp_path, capsys):
        # trained on a 16-d bank, then a 32-d bank is written at its path
        bank, run, ev = tmp_path / "b.bin", tmp_path / "run", tmp_path / "ev"
        labels = np.repeat(np.arange(4), 4)
        names = {k: str(k) for k in range(4)}
        write_feature_bank(bank, np.random.default_rng(0).random((16, 16)),
                           labels, names)
        cfg = {**TINY, "data": {"bank": {"path": str(bank), "num_tasks": 2}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(run)]) == 0
        write_feature_bank(bank, np.ones((16, 32)), labels, names)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(run / "run.ckpt"),
                         "--out", str(ev)]) == 2
        assert "encoder.d_v" in capsys.readouterr().err
        assert not ev.exists()

    @pytest.mark.parametrize("region", ["json", "file"])
    def test_bit_flips_in_json_sections_exit_0_or_3(self, train_dir, tmp_path,
                                                    capsys, region):
        blob = (train_dir / "run.ckpt").read_bytes()
        # the meta and config JSON sections come first, after the 13-byte
        # header; each is a u16 name length, the name, a u64 size, the body
        end = 13
        for _ in range(2):
            nlen = struct.unpack_from("<H", blob, end)[0]
            size = struct.unpack_from("<Q", blob, end + 2 + nlen)[0]
            end += 2 + nlen + 8 + size
        if region == "file":
            end = len(blob)
        rng = np.random.default_rng(40)
        bad = tmp_path / "bad.ckpt"
        codes = []
        for _ in range(40):
            flipped = bytearray(blob)
            for pos in rng.integers(13, end, 3):
                flipped[pos] ^= 1 << int(rng.integers(0, 8))
            bad.write_bytes(bytes(flipped))
            codes.append(cli.main(["eval", "--ckpt", str(bad),
                                   "--out", str(tmp_path / "o")]))
        capsys.readouterr()
        assert set(codes) <= {0, 3}, codes
        assert codes.count(3) >= 30
        if region == "file":
            assert codes == [3] * 40


class TestAblations:
    def test_ten_paired_rows(self, distill_dir):
        rows = json.loads((distill_dir / "rows.json").read_text())["rows"]
        names = [r["variant"] for r in rows]
        assert names == ["seq", "clip_kd", "vanilla", "avg_kd", "sg_akt",
                         "seq+se_vpr", "clip_kd+se_vpr", "vanilla+se_vpr",
                         "avg_kd+se_vpr", "sg_akt+se_vpr"]
        for r in rows:
            assert len(r["seeds"]) == 3
            assert len(r["per_task"]) == 2
            assert 0.0 <= r["last"] <= 100.0
            assert 0.0 <= r["avg"] <= 100.0

    def test_variants_share_trial_seeds(self, distill_dir):
        def seeds(variant):
            out = []
            for i in range(3):
                m = json.loads((distill_dir / "runs" / variant / str(i)
                                / "manifest.json").read_text())
                out.append((m["config"]["seed"],
                            m["config"]["data"]["synthetic"]["seed"]))
            return out

        assert seeds("seq") == seeds("sg_akt+se_vpr") == seeds("avg_kd")

    def test_leaf_equals_standalone_train(self, distill_dir, cfg_path,
                                          tmp_path):
        cfg = json.loads(cfg_path.read_text())
        cfg.update({"distill": "seq", "classifier": "only_text"})
        solo_cfg = tmp_path / "seq.json"
        solo_cfg.write_text(json.dumps(cfg))
        solo = tmp_path / "solo"
        assert cli.main(["train", "--config", str(solo_cfg),
                         "--out", str(solo)]) == 0
        leaf = distill_dir / "runs" / "seq" / "0"
        assert (leaf / "summary.json").read_bytes() \
            == (solo / "summary.json").read_bytes()

    def test_classifier_table(self, cfg_path, tmp_path):
        out = tmp_path / "ab-cls"
        assert cli.main(["ablate-classifier", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        rows = json.loads((out / "rows.json").read_text())["rows"]
        assert [r["variant"] for r in rows] == [
            "only_text", "centroid_clip", "centroid_adapted", "linear",
            "se_vpr"]

    def test_failing_leaf_stops_the_matrix(self, cfg_path, tmp_path,
                                           monkeypatch):
        run_stream = cli.run_stream
        calls = []

        def failing(cfg, stream):
            calls.append(cfg.seed)
            if len(calls) == 2:
                raise NumericsError("non-finite value in the second leaf")
            return run_stream(cfg, stream)

        monkeypatch.setattr(cli, "run_stream", failing)
        out = tmp_path / "ab-cls"
        assert cli.main(["ablate-classifier", "--config", str(cfg_path),
                         "--out", str(out)]) == 4
        assert len(calls) == 2
        # the leaf that finished stays; the matrix's own outputs do not
        assert (out / "runs" / "only_text" / "0" / "summary.json").exists()
        assert not (out / "rows.json").exists()
        assert not (out / "manifest.json").exists()


class TestSweep:
    def test_pool_values_with_all(self, cfg_path, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", "pool", "--values", "1", "ALL",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = json.loads((out / "rows.json").read_text())["rows"]
        assert [r["variant"] for r in rows] == ["pool=1", "pool=ALL"]
        m = json.loads((out / "runs" / "pool=ALL" / "0"
                        / "manifest.json").read_text())
        assert m["config"]["pool_max"] == "ALL"

    def test_beta_schedule_row(self, cfg_path, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", "beta",
                         "--values", "0.5", "task-index",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = json.loads((out / "rows.json").read_text())["rows"]
        assert [r["variant"] for r in rows] == ["beta=0.5", "beta=task-index"]
        m = json.loads((out / "runs" / "beta=task-index" / "0"
                        / "manifest.json").read_text())
        assert m["config"]["beta"] == "task-index"

    def test_dynamic_alias(self, cfg_path, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", "beta", "--values", "dynamic",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = json.loads((out / "rows.json").read_text())["rows"]
        assert rows[0]["variant"] == "beta=dynamic"

    def test_width_changes_encoder(self, cfg_path, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", "width", "--values", "2",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
        m = json.loads((out / "runs" / "width=2" / "0"
                        / "manifest.json").read_text())
        assert m["config"]["encoder"]["adapter_width"] == 2

    def test_single_value_sweep_equals_train(self, cfg_path, train_dir,
                                             tmp_path):
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", "pool", "--values", "5",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "runs" / "pool=5" / "0" / "summary.json").read_bytes() \
            == (train_dir / "summary.json").read_bytes()

    @pytest.mark.parametrize("param", ["beta", "tau_prime", "pool", "width"])
    def test_bad_value_exits_2(self, cfg_path, tmp_path, capsys, param):
        # a valid token first: every token is checked before any leaf trains,
        # for its type, its range and its finiteness alike
        good = {"beta": "0.5", "tau_prime": "1", "pool": "ALL",
                "width": "2"}[param]
        bad = {"beta": ["some", "-2"], "tau_prime": ["some", "0", "NaN"],
               "pool": ["some", "0"], "width": ["some", "0"]}[param]
        for tok in bad:
            out = tmp_path / tok
            assert cli.main(["sweep", "--param", param, "--values", good, tok,
                             "--config", str(cfg_path),
                             "--out", str(out)]) == 2
            assert f"sweep: bad {param} value '{tok}'" \
                in capsys.readouterr().err
            assert not (out / "runs").exists()

    @pytest.mark.parametrize("param,tokens", [
        ("pool", ["1", "1"]), ("pool", ["ALL", "null"]),
        ("tau_prime", ["1", "1.0"]), ("beta", ["dynamic", "task-index"])],
        ids=["pool-1-1", "pool-ALL-null", "tau_prime-1-1.0",
             "beta-dynamic-task-index"])
    def test_repeated_value_exits_2(self, cfg_path, tmp_path, capsys, param,
                                    tokens):
        # equal values would train the same leaves twice, the second run
        # overwriting the first, and list the variant twice in rows.json
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--param", param, "--values", *tokens,
                         "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"sweep: repeated {param} value '{tokens[1]}'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param_exits_2(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["sweep", "--param", "gamma", "--values", "1",
                      "--config", str(cfg_path),
                      "--out", str(tmp_path / "o")])
        assert e.value.code == 2


class TestTheoryCheck:
    def test_grid_passes(self, tmp_path):
        out = tmp_path / "th"
        assert cli.main(["theory-check", "--out", str(out),
                         "--instances", "30"]) == 0
        doc = json.loads((out / "theory.json").read_text())
        assert doc["all_pass"] is True
        assert len(doc["rows"]) == 30
        assert {r["tau"] for r in doc["rows"]} == {0.1, 1.0, 10.0}
        assert (out / "manifest.json").exists()

    def test_failed_table_exits_1(self, tmp_path, monkeypatch):
        bad = lambda losses, tau: np.full(len(losses), 1.0 / len(losses))
        monkeypatch.setattr(cli.theory, "closed_form_weights", bad)
        out = tmp_path / "th"
        assert cli.main(["theory-check", "--out", str(out),
                         "--instances", "3"]) == 1
        doc = json.loads((out / "theory.json").read_text())
        assert doc["all_pass"] is False

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_instances_exits_2(self, tmp_path, capsys, n):
        out = tmp_path / "th"
        assert cli.main(["theory-check", "--out", str(out),
                         "--instances", str(n)]) == 2
        assert "--instances" in capsys.readouterr().err
        assert not (out / "theory.json").exists()


class TestGenData:
    def test_bank_round_trips_into_training(self, cfg_path, tmp_path):
        gen = tmp_path / "gen"
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", str(gen)]) == 0
        assert sorted(p.name for p in gen.iterdir()) \
            == ["bank.bin", "manifest.json"]  # no name sidecar

        cfg = json.loads(cfg_path.read_text())
        cfg["data"] = {"bank": {"path": str(gen / "bank.bin"),
                                "num_tasks": 2}}
        bank_cfg = tmp_path / "bank.json"
        bank_cfg.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bank_cfg),
                         "--out", str(tmp_path / "run")]) == 0
        # a bank cannot be generated from a bank
        assert cli.main(["gen-data", "--config", str(bank_cfg),
                         "--out", str(tmp_path / "gen2")]) == 2
        assert not (tmp_path / "gen2").exists()

    def test_spec_wider_than_the_encoder(self, tmp_path):
        # gen-data uses no encoder, so its width does not bind the spec
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"synthetic": {"dim": 8}}}))
        assert cli.main(["gen-data", "--config", str(cfg),
                         "--out", str(tmp_path / "gen")]) == 0
        assert (tmp_path / "gen" / "bank.bin").exists()

    def test_negative_seed_leaves_no_dir(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"synthetic": {"seed": -3}}}))
        assert cli.main(["gen-data", "--config", str(cfg),
                         "--out", str(tmp_path / "gen")]) == 2
        assert "seed: -3 must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_damaged_bank_exits_3(self, cfg_path, tmp_path):
        gen = tmp_path / "gen"
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", str(gen)]) == 0
        blob = (gen / "bank.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        cfg = json.loads(cfg_path.read_text())
        cfg["data"] = {"bank": {"path": str(bad), "num_tasks": 2}}
        bank_cfg = tmp_path / "bank.json"
        bank_cfg.write_text(json.dumps(cfg))
        bad.write_bytes(blob)  # undamaged, the copy trains
        assert cli.main(["train", "--config", str(bank_cfg),
                         "--out", str(tmp_path / "ok")]) == 0
        rng = np.random.default_rng(41)
        for i in range(30):
            pos = int(rng.integers(0, len(blob)))
            if i % 3:
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << int(rng.integers(0, 8))
                bad.write_bytes(bytes(flipped))
            else:
                bad.write_bytes(blob[:pos])
            assert cli.main(["train", "--config", str(bank_cfg),
                             "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o" / "summary.json").exists()


class TestReport:
    def test_csv_round_trips_numbers(self, train_dir, tmp_path):
        out = tmp_path / "rp"
        assert cli.main(["report", "--in", str(train_dir),
                         "--format", "csv", "--out", str(out)]) == 0
        summary = json.loads((train_dir / "summary.json").read_text())
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "variant,last,avg"
        name, last, avg = lines[1].split(",")
        assert name == "sg_akt+se_vpr"
        assert float(last) == summary["last"]
        assert float(avg) == summary["avg"]

        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "task,variant,acc"
        assert len(curves) == 1 + len(summary["per_task"])
        assert [float(ln.split(",")[2]) for ln in curves[1:]] \
            == summary["per_task"]

    def test_md_one_row_per_variant(self, train_dir, tmp_path):
        out = tmp_path / "rp"
        assert cli.main(["report", "--in", str(train_dir), str(train_dir),
                         "--format", "md", "--out", str(out)]) == 0
        lines = (out / "report.md").read_text().splitlines()
        assert len(lines) == 2 + 2  # header, separator, two rows
        # duplicate names get disambiguated
        assert lines[2] != lines[3]

    def test_json_format(self, train_dir, tmp_path):
        out = tmp_path / "rp"
        assert cli.main(["report", "--in", str(train_dir),
                         "--format", "json", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 1

    def test_version_mismatch_exits_3(self, train_dir, tmp_path, capsys):
        clone = tmp_path / "clone"
        clone.mkdir()
        for name in ("manifest.json", "summary.json", "metrics.csv"):
            (clone / name).write_bytes((train_dir / name).read_bytes())
        manifest = json.loads((clone / "manifest.json").read_text())
        manifest["versions"] = dict(manifest["versions"], checkpoint=99)
        (clone / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["report", "--in", str(train_dir), str(clone),
                         "--format", "csv",
                         "--out", str(tmp_path / "o")]) == 3
        assert "versions" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text", [
        ("summary.json", "{not json"),
        ("manifest.json", "[1, 2]"),
        ("summary.json", '{"avg": 1}'),
        ("rows.json", '{"rows": [{"variant": "a", "avg": 1, "per_task": []}]}'),
        ("rows.json", '{"rows": [{"variant": "a", "last": "high", "avg": 1, '
                      '"per_task": []}]}'),
    ])
    def test_malformed_inputs_exit_3(self, train_dir, tmp_path, capsys, name,
                                     text):
        clone = tmp_path / "clone"
        clone.mkdir()
        for keep in ("manifest.json", "summary.json"):
            (clone / keep).write_bytes((train_dir / keep).read_bytes())
        (clone / name).write_text(text)
        assert cli.main(["report", "--in", str(clone),
                         "--out", str(tmp_path / "o")]) == 3
        assert "malformed run outputs" in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, train_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", "--in", str(empty),
                         "--out", str(tmp_path / "o")]) == 3
        # a manifest with neither rows.json nor summary.json beside it
        (empty / "manifest.json").write_bytes(
            (train_dir / "manifest.json").read_bytes())
        assert cli.main(["report", "--in", str(empty),
                         "--out", str(tmp_path / "o")]) == 3
        assert "no rows.json or summary.json" in capsys.readouterr().err

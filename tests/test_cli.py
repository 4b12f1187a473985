import dataclasses
import json
import math

import numpy as np
import pytest

from groundbox.cli import main
from groundbox.config import ConfigError, GroundingConfig, LossMode, parse_config_file
from groundbox.data import load_segments
from groundbox.model import GroundingModel

FAST = ("T=3\nT_prime=2\nd=8\nD_in=6\nV=12\nN=4\nattn_layers=1\nattn_heads=2\n"
        "attn_hidden=8\ndropout=0.0\nframes_per_segment=4\n"
        "train_segments=6\nval_segments=3\ntest_segments=3\nepochs=2\nbatch=3\n"
        "lr=0.1\nsigma=0.1\n")


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST)
    return str(p)


# --------------------------------------------------------------------------
# config parsing / precedence

def test_parse_config_file_types_and_comments(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nlam = 0.8  # trailing\n\nT=7\nmode=dvsa\n")
    values = parse_config_file(p)
    assert values == {"lam": 0.8, "T": 7, "mode": "dvsa"}


def test_parse_config_file_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("lam=0.5\nnot a pair\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config_file(p)
    p.write_text("bogus_key=1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config_file(p)
    p.write_text("T=five\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config_file(p)


def test_config_defaults_match_published_operating_point():
    c = GroundingConfig()
    assert (c.lam, c.delta, c.T, c.d, c.lr, c.momentum, c.epochs, c.batch) == \
        (0.9, 0.1, 5, 128, 0.05, 0.9, 30, 16)
    assert c.mode is LossMode.FULL_MODEL
    assert (c.attn_layers, c.attn_heads, c.attn_hidden) == (2, 6, 256)
    # per-head width 256 // 6, six heads side by side
    assert GroundingModel(c).attn.layers[0].Wq.shape == (128, 252)


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        GroundingConfig(lam=1.5).validate()
    with pytest.raises(ConfigError):
        GroundingConfig(delta=0.0).validate()
    with pytest.raises(ConfigError):
        GroundingConfig(T=3, T_prime=4).validate()
    with pytest.raises(ConfigError):
        GroundingConfig(mode="nonsense")


def test_config_refuses_removed_keys():
    # an old checkpoint.json loads after these two keys are deleted from it
    for key, value in (("pe_max_len", 64), ("canvas", 1000)):
        with pytest.raises(ConfigError, match=f"unknown config keys \\['{key}'\\]"):
            GroundingConfig.from_dict({"seed": 0, key: value})


def test_config_refuses_more_heads_than_attention_columns():
    # 8 heads over 4 columns would be 8 heads of width 1, an attention width of 8
    GroundingConfig(attn_heads=4, attn_hidden=4).validate()
    with pytest.raises(ConfigError, match="^attn_heads 8 exceeds attn_hidden 4"):
        GroundingConfig(attn_heads=8, attn_hidden=4).validate()


def test_config_requires_positive_lr():
    for lr in (0.0, -1.0):
        with pytest.raises(ConfigError, match="lr"):
            GroundingConfig(lr=lr).validate()


def test_config_requires_momentum_in_unit_interval():
    GroundingConfig(momentum=0.0).validate()
    for momentum in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError, match="momentum"):
            GroundingConfig(momentum=momentum).validate()


def test_config_requires_dropout_in_unit_interval():
    GroundingConfig(dropout=0.0).validate()
    for dropout in (1.0, -0.1):
        with pytest.raises(ConfigError, match=f"^dropout must be in \\[0, 1\\), got {dropout}"):
            GroundingConfig(dropout=dropout).validate()


def test_config_requires_nonnegative_sigma():
    GroundingConfig(sigma=0.0).validate()
    with pytest.raises(ConfigError, match="sigma"):
        GroundingConfig(sigma=-0.1).validate()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(GroundingConfig) if f.type is float]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_config_refuses_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        GroundingConfig.from_dict({field: value})


@pytest.mark.parametrize("field, value", [
    ("d", 8.5), ("epochs", True), ("seed", 1.5), ("T", "5"), ("lr", "0.1"),
    ("lam", False), ("dropout", None)])
def test_config_refuses_values_of_the_wrong_type(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an? (int|number), got "):
        GroundingConfig.from_dict({field: value})


def test_config_float_fields_take_ints():
    assert GroundingConfig.from_dict({"lr": 1, "dropout": 0}).lr == 1


def test_config_from_dict_names_unknown_keys():
    # a checkpoint config may carry fields this version does not have
    with pytest.raises(ConfigError, match=r"\['bogus', 'workers'\]"):
        GroundingConfig.from_dict({"workers": 2, "bogus": 1, "lam": 0.5})


def test_config_round_trip_dict():
    c = GroundingConfig(mode="dvsa", lam=0.4)
    assert GroundingConfig.from_dict(c.to_dict()) == c


# --------------------------------------------------------------------------
# CLI

def test_cli_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_gen_data_writes_dataset(tmp_path, fast_cfg):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", fast_cfg, "--out", str(out)]) == 0
    vocab, splits = load_segments(out)
    assert vocab.size == 12
    assert len(splits["train"]) == 6


def test_cli_gen_data_seed_determinism(tmp_path, fast_cfg):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["gen-data", "--config", fast_cfg, "--seed", "3", "--out", str(a)])
    main(["gen-data", "--config", fast_cfg, "--seed", "3", "--out", str(b)])
    main(["gen-data", "--config", fast_cfg, "--seed", "4", "--out", str(c)])
    assert (a / "features.bin").read_bytes() == (b / "features.bin").read_bytes()
    assert (a / "features.bin").read_bytes() != (c / "features.bin").read_bytes()


def test_cli_seed_env_var_and_flag_precedence(tmp_path, fast_cfg, monkeypatch, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("GROUNDBOX_SEED", "11")
    main(["gen-data", "--config", fast_cfg, "--out", str(a)])
    monkeypatch.delenv("GROUNDBOX_SEED")
    main(["gen-data", "--config", fast_cfg, "--seed", "11", "--out", str(b)])
    assert (a / "features.bin").read_bytes() == (b / "features.bin").read_bytes()
    # explicit flag wins over the env var
    monkeypatch.setenv("GROUNDBOX_SEED", "99")
    main(["gen-data", "--config", fast_cfg, "--seed", "11", "--out", str(c)])
    assert (c / "features.bin").read_bytes() == (b / "features.bin").read_bytes()
    # a value that is no integer is named with its variable
    monkeypatch.setenv("GROUNDBOX_SEED", "abc")
    capsys.readouterr()
    assert main(["gen-data", "--config", fast_cfg, "--out", str(tmp_path / "d")]) == 1
    assert "GROUNDBOX_SEED: invalid literal" in capsys.readouterr().err
    # a negative seed is refused by name, from the variable or from the flag
    monkeypatch.setenv("GROUNDBOX_SEED", "-3")
    assert main(["gen-data", "--config", fast_cfg, "--out", str(tmp_path / "d")]) == 1
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert main(["gen-data", "--config", fast_cfg, "--seed", "-1",
                 "--out", str(tmp_path / "d")]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("line, want", [("lr=-1", "lr must be positive, got -1.0"),
                                        ("mode=bogus", "unknown mode 'bogus'")])
def test_cli_names_the_config_file_of_a_bad_value(tmp_path, fast_cfg, capsys, line, want):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST + line + "\n")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert f"error: {bad}: {want}" in capsys.readouterr().err
    # a bad value from a flag alone does not name the file
    assert main(["gen-data", "--config", fast_cfg, "--lam", "2",
                 "--out", str(tmp_path / "d")]) == 1
    assert "error: lam must be in [0, 1], got 2.0" in capsys.readouterr().err
    # one that needs a file key and a flag together names the file
    assert main(["gen-data", "--config", fast_cfg, "--T", "1",
                 "--out", str(tmp_path / "d")]) == 1
    assert f"error: {fast_cfg}: need 1 <= T_prime <= T" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_cli_flag_overrides_config_file(tmp_path, fast_cfg):
    out = tmp_path / "data"
    main(["gen-data", "--config", fast_cfg, "--N", "7", "--out", str(out)])
    _, splits = load_segments(out)
    assert len(splits["train"][0].frames[0]) == 7


def test_cli_train_eval_pipeline(tmp_path, fast_cfg):
    data = tmp_path / "data"
    run = tmp_path / "run"
    report = tmp_path / "reports" / "report.json"  # a directory that does not exist yet
    assert main(["gen-data", "--config", fast_cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", fast_cfg, "--data", str(data),
                 "--mode", "loss-weight", "--out", str(run)]) == 0
    assert (run / "checkpoint.bin").exists()
    assert (run / "trainlog.csv").exists()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data), "--split", "test",
                 "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["mode"] == "loss-weight" and d["split"] == "test"
    assert 0.0 <= d["macro_accuracy"] <= 1.0
    assert d["upper_bound"] == 1.0


def test_cli_train_only_writes_inside_out_dir(tmp_path, fast_cfg):
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["gen-data", "--config", fast_cfg, "--out", str(data)])
    before = {p for p in tmp_path.rglob("*")}
    main(["train", "--config", fast_cfg, "--data", str(data),
          "--mode", "dvsa", "--out", str(run)])
    new = {p for p in tmp_path.rglob("*")} - before
    assert new and all(p == run or run in p.parents for p in new)


def test_cli_eval_vocab_mismatch_exits_1(tmp_path, fast_cfg, capsys):
    data = tmp_path / "data"
    other = tmp_path / "other"
    run = tmp_path / "run"
    main(["gen-data", "--config", fast_cfg, "--out", str(data)])
    main(["train", "--config", fast_cfg, "--data", str(data),
          "--mode", "dvsa", "--out", str(run)])
    # dataset with a different vocabulary size
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(FAST.replace("V=12", "V=9"))
    main(["gen-data", "--config", str(cfg2), "--out", str(other)])
    code = main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(other), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_refuses_dataset_that_does_not_match_the_config(tmp_path, fast_cfg,
                                                           capsys):
    data = tmp_path / "data"
    wide = tmp_path / "wide"
    run = tmp_path / "run"
    main(["gen-data", "--config", fast_cfg, "--out", str(data)])
    main(["train", "--config", fast_cfg, "--data", str(data),
          "--mode", "dvsa", "--out", str(run)])
    cfg2 = tmp_path / "wide.cfg"
    cfg2.write_text(FAST.replace("D_in=6", "D_in=16"))
    main(["gen-data", "--config", str(cfg2), "--out", str(wide)])
    capsys.readouterr()
    want = f"{wide / 'features.json'}: dim 16, but "
    assert main(["train", "--config", fast_cfg, "--data", str(wide),
                 "--out", str(tmp_path / "run2")]) == 1
    assert want + "the config has D_in=6" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(wide), "--out", str(tmp_path / "r.json")]) == 1
    assert want + f"{run / 'checkpoint.json'} has D_in=6" in capsys.readouterr().err
    # the vocabulary check names its file too
    cfg3 = tmp_path / "v9.cfg"
    cfg3.write_text(FAST.replace("V=12", "V=9"))
    assert main(["train", "--config", str(cfg3), "--data", str(data),
                 "--out", str(tmp_path / "run4")]) == 1
    assert f"{data / 'vocabulary.txt'} holds 12 labels, but the config has V=9" \
        in capsys.readouterr().err


@pytest.mark.parametrize("split", ["test", "val"])
def test_cli_eval_refuses_a_split_without_gt_records(tmp_path, fast_cfg, capsys, split):
    data, empty, run = tmp_path / "data", tmp_path / "empty", tmp_path / "run"
    report = tmp_path / "report.json"
    main(["gen-data", "--config", fast_cfg, "--out", str(data)])
    main(["train", "--config", fast_cfg, "--data", str(data),
          "--mode", "dvsa", "--out", str(run)])
    cfg2 = tmp_path / "empty.cfg"
    cfg2.write_text(FAST.replace(f"{split}_segments=3", f"{split}_segments=0"))
    main(["gen-data", "--config", str(cfg2), "--out", str(empty)])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(empty),
                 "--split", split, "--out", str(report)]) == 1
    assert f"{empty}: the {split} split holds no gt record" in capsys.readouterr().err
    assert not report.exists()


def test_cli_eval_load_errors_name_the_checkpoint(tmp_path, fast_cfg, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["gen-data", "--config", fast_cfg, "--out", str(data)])
    main(["train", "--config", fast_cfg, "--data", str(data),
          "--mode", "full", "--out", str(run)])
    manifest_path = run / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())

    def eval_error(edit):
        edited = json.loads(json.dumps(manifest))
        edit(edited)
        manifest_path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--data", str(data), "--out", str(tmp_path / "r.json")]) == 1
        return capsys.readouterr().err

    err = eval_error(lambda m: m["config"].update(workers=1))
    assert str(manifest_path) in err and "unknown config keys ['workers']" in err

    def old_head_names(m):  # a parameter named as before the heads were fused
        m["params"] = {k.replace("attn.l0.Wq", "attn.l0.h0.Wq"): v
                       for k, v in m["params"].items()}

    err = eval_error(old_head_names)
    assert str(manifest_path) in err and "missing ['attn.l0.Wq']" in err

    err = eval_error(lambda m: m.update(params=[]))
    assert f"{manifest_path}: corrupt checkpoint manifest" in err

    err = eval_error(lambda m: m["config"].update(d=8.5))
    assert f"{manifest_path}: d must be an int, got 8.5" in err
    err = eval_error(lambda m: m["config"].update(epochs=True))
    assert f"{manifest_path}: epochs must be an int, got True" in err
    err = eval_error(lambda m: m["config"].update(seed=-1))
    assert f"{manifest_path}: seed must be >= 0, got -1" in err
    for config in ([], "d"):
        err = eval_error(lambda m: m.update(config=config))
        assert f"{manifest_path}: config must be an object of fields, got {config!r}" in err

    blob = run / "checkpoint.bin"
    blob.write_bytes(np.full(blob.stat().st_size // 8, np.nan).tobytes())
    err = eval_error(lambda m: None)
    assert f"{blob}: parameter {next(iter(manifest['params']))} holds non-finite" in err


def test_cli_train_missing_data_exits_1(tmp_path, fast_cfg, capsys):
    code = main(["train", "--config", fast_cfg, "--data",
                 str(tmp_path / "nope"), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_train_refuses_a_dataset_without_train_segments(tmp_path, fast_cfg, capsys):
    data = tmp_path / "data"
    cfg = tmp_path / "no-train.cfg"
    cfg.write_text(FAST + "train_segments=0\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", fast_cfg, "--data", str(data),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert (f"groundbox train: error: {data}: the train split holds no segment "
            "to train on") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_compare_reports(tmp_path, capsys):
    a = {"mode": "full", "split": "test", "macro_accuracy": 0.6,
         "upper_bound": 1.0,
         "per_class": {"obj00": {"acc": 0.9, "n": 3}, "obj01": {"acc": 0.1, "n": 2}}}
    b = dict(a, per_class={"obj00": {"acc": 0.2, "n": 3},
                           "obj01": {"acc": 0.5, "n": 2}})
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert main(["compare", "--a", str(tmp_path / "a.json"),
                 "--b", str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    assert "obj00" in out and "+0.7000" in out and "-0.4000" in out


def test_cli_compare_mismatch_exits_1(tmp_path, capsys):
    a = {"mode": None, "split": None, "macro_accuracy": 0.0, "upper_bound": None,
         "per_class": {"x": {"acc": 0.0, "n": 1}}}
    b = dict(a, per_class={"y": {"acc": 0.0, "n": 1}})
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    capsys.readouterr()
    assert main(["compare", "--a", str(tmp_path / "a.json"),
                 "--b", str(tmp_path / "b.json")]) == 1
    assert (f"{tmp_path / 'a.json'} and {tmp_path / 'b.json'}: reports cover different "
            "class sets") in capsys.readouterr().err
    # a report without per-class accuracies is named with the missing field
    del b["per_class"]
    (tmp_path / "b.json").write_text(json.dumps(b))
    capsys.readouterr()
    assert main(["compare", "--a", str(tmp_path / "a.json"),
                 "--b", str(tmp_path / "b.json")]) == 1
    assert f"{tmp_path / 'b.json'}: report lacks ['per_class']" in capsys.readouterr().err
    # so is a class without an accuracy, a file that is not a JSON object and
    # an accuracy that is not a number
    for text, want in (
            (json.dumps(dict(a, per_class={"x": {"n": 1}})),
             "per_class entry 'x' has no \"acc\""),
            (json.dumps(dict(a, per_class={"x": 0.5})), "per_class entry 'x' has no \"acc\""),
            (json.dumps(dict(a, per_class=[])), "per_class is not an object"),
            ("not json", "not a JSON object: Expecting value: line 1 column 1 (char 0)"),
            ("3", "not a JSON object: int"),
            (json.dumps(dict(a, per_class={"x": {"acc": "hi", "n": 1}})),
             "per_class entry 'x': acc: 'hi' is not a JSON number"),
            (json.dumps(dict(a, macro_accuracy=None)),
             "macro_accuracy: None is not a JSON number")):
        (tmp_path / "b.json").write_text(text)
        assert main(["compare", "--a", str(tmp_path / "a.json"),
                     "--b", str(tmp_path / "b.json")]) == 1
        assert f"{tmp_path / 'b.json'}: {want}" in capsys.readouterr().err

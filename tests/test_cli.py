"""CLI surface: subcommands, error codes, reproducibility of artifacts."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "setnet.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, payload


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_synth_counting_and_train_predict(workdir):
    synth_cfg = write_config(workdir, "synth.json",
                             {"task": "counting", "n": 300, "d": 4, "seed": 5})
    code, out = run_cli("synth", "--config", synth_cfg,
                        "--out", str(workdir / "data"))
    assert code == 0
    assert out["seed"] == 5
    assert out["config"]["task"] == "counting"
    data_file = out["files"]["data"]

    train_cfg = write_config(workdir, "train.json", {
        "data": data_file, "hidden": [8], "epochs": 3, "batch_size": 32,
        "learning_rate": 0.02, "alpha_max": 12.0, "beta_max": 4.0, "seed": 1,
    })
    code, out = run_cli("train", "--config", train_cfg,
                        "--out", str(workdir / "model"))
    assert code == 0
    assert out["final_loss"] == pytest.approx(out["final_loss"])
    model_file = out["files"]["model"]
    log_header = open(out["files"]["train_log"]).readline()
    assert "schema_version" in log_header

    pred_cfg = write_config(workdir, "pred.json",
                            {"model": model_file, "features": data_file})
    code, out = run_cli("predict", "--config", pred_cfg,
                        "--out", str(workdir / "pred"))
    assert code == 0
    rows = [json.loads(l) for l in open(out["files"]["predictions"])][1:]
    assert len(rows) == 300
    assert all(r["alpha"] > 0 and r["beta"] > 0 and r["mode"] >= 0 for r in rows)


def test_multilabel_eval_pipeline(workdir):
    synth_cfg = write_config(workdir, "ml.json", {
        "task": "multilabel", "n": 150, "d": 4, "C": 8, "seed": 9, "noise": 0.0,
    })
    code, out = run_cli("synth", "--config", synth_cfg,
                        "--out", str(workdir / "ml"))
    assert code == 0
    records = out["files"]["records"]

    eval_cfg = write_config(workdir, "evalml.json",
                            {"records": records, "mode": "fixed-k"})
    code, out = run_cli("eval-ml", "--config", eval_cfg,
                        "--out", str(workdir / "mlres"))
    assert code == 0
    assert len(out["sweep"]) == 9  # k = 0..8
    assert out["sweep"][-1]["O-R"] == 1.0
    curve = open(out["files"]["curve"]).read().splitlines()
    assert curve[1].startswith("k,")

    # Noise-free scores with oracle counts give perfect predicted-k metrics.
    feats = out_features = json.loads(
        open(str(workdir / "ml") + "/features.jsonl").readline()
    )
    counts_rows = [json.loads(l)
                   for l in open(str(workdir / "ml") + "/features.jsonl")][1:]
    pred_path = workdir / "oracle_pred.jsonl"
    with open(pred_path, "w") as fh:
        fh.write(json.dumps({"schema_version": 1, "config_hash": "x", "seed": 0}))
        fh.write("\n")
        for row in counts_rows:
            fh.write(json.dumps({"mode": row["count"]}))
            fh.write("\n")
    eval2 = write_config(workdir, "evalml2.json", {
        "records": records, "mode": "predicted-k", "pred": str(pred_path),
    })
    code, out = run_cli("eval-ml", "--config", eval2,
                        "--out", str(workdir / "mlres2"))
    assert code == 0
    assert out["metrics"]["O-F1"] == 1.0


def test_boxes_nms_eval_pipeline(workdir):
    synth_cfg = write_config(workdir, "boxes.json", {
        "task": "boxes", "n": 40, "d": 4, "seed": 13, "jitter": 0.0,
        "fp_rate": 0.0,
    })
    code, out = run_cli("synth", "--config", synth_cfg,
                        "--out", str(workdir / "boxes"))
    assert code == 0
    files = out["files"]

    nms_cfg = write_config(workdir, "nms.json", {
        "proposals": files["proposals"], "mstar_file": files["counts"],
    })
    code, out = run_cli("nms", "--config", nms_cfg,
                        "--out", str(workdir / "kept"))
    assert code == 0
    assert out["n_short"] == 0
    kept_file = out["files"]["kept"]

    eval_cfg = write_config(workdir, "evaldet.json",
                            {"dets": kept_file, "gts": files["gt"]})
    code, out = run_cli("eval-det", "--config", eval_cfg,
                        "--out", str(workdir / "detres"))
    assert code == 0
    assert out["f1"] == pytest.approx(1.0)
    assert out["mr"] == pytest.approx(1e-10)


def test_nms_fixed_and_model_sources(workdir):
    synth_cfg = write_config(workdir, "boxes2.json",
                             {"task": "boxes", "n": 10, "d": 4, "seed": 17})
    code, out = run_cli("synth", "--config", synth_cfg,
                        "--out", str(workdir / "boxes2"))
    proposals = out["files"]["proposals"]
    nms_cfg = write_config(workdir, "nms_fixed.json",
                           {"proposals": proposals, "mstar_fixed": 2})
    code, out = run_cli("nms", "--config", nms_cfg,
                        "--out", str(workdir / "kept2"))
    assert code == 0
    kept = [l for l in open(out["files"]["kept"]) if not l.startswith("#")]
    by_image = {}
    for line in kept:
        by_image.setdefault(line.split()[0], []).append(line)
    assert all(len(v) <= 2 for v in by_image.values())
    # The first box of an image is always kept, so every image is listed.
    assert len(by_image) == out["n_images"]
    assert out["n_short"] == sum(len(v) < 2 for v in by_image.values())

    # An m* above every image's proposal count is missed on every image.
    nms_cfg = write_config(workdir, "nms_short.json",
                           {"proposals": proposals, "mstar_fixed": 10_000})
    code, out = run_cli("nms", "--config", nms_cfg,
                        "--out", str(workdir / "kept_short"))
    assert code == 0
    assert out["n_short"] == out["n_images"] == len(by_image)
    assert "n_short" not in open(out["files"]["kept"]).read()


def test_nms_model_source(workdir):
    # Constant high-rate maps so every image carries proposals: the feature
    # rows then align one-to-one with the images in the proposals file.
    const_maps = {
        "alpha_map": {"weights": [], "bias": 12.0, "lo": 12.0, "hi": 12.0},
        "beta_map": {"weights": [], "bias": 1.0, "lo": 1.0, "hi": 1.0},
    }
    synth_box = write_config(workdir, "boxes3.json",
                             {"task": "boxes", "n": 6, "d": 4, "seed": 19,
                              **const_maps})
    code, out = run_cli("synth", "--config", synth_box,
                        "--out", str(workdir / "boxes3"))
    proposals = out["files"]["proposals"]

    synth_cnt = write_config(workdir, "cnt.json",
                             {"task": "counting", "n": 6, "d": 4, "seed": 20})
    code, out = run_cli("synth", "--config", synth_cnt,
                        "--out", str(workdir / "cnt"))
    feats = out["files"]["data"]
    train_cfg = write_config(workdir, "train_m.json", {
        "data": feats, "hidden": [4], "epochs": 1, "alpha_max": 12.0,
        "beta_max": 4.0, "seed": 2,
    })
    code, out = run_cli("train", "--config", train_cfg,
                        "--out", str(workdir / "m2"))
    model_file = out["files"]["model"]

    nms_cfg = write_config(workdir, "nms_model.json", {
        "proposals": proposals, "mstar_model": model_file,
        "mstar_features": feats,
    })
    code, out = run_cli("nms", "--config", nms_cfg,
                        "--out", str(workdir / "kept3"))
    assert code == 0
    assert out["n_images"] == 6


def test_log_env_controls_stderr(workdir):
    import os
    import subprocess
    cfg = write_config(workdir, "logtest.json",
                       {"task": "counting", "n": 20, "d": 4, "seed": 1})
    env = dict(os.environ, SETNET_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "setnet.cli", "synth", "--config", cfg,
         "--out", str(workdir / "logrun")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "counting samples" in proc.stderr
    # stdout stays machine-readable JSON.
    assert json.loads(proc.stdout.strip())["command"] == "synth"


def test_sample_command(workdir):
    cfg = write_config(workdir, "sample.json", {
        "card": "pmf", "pmf": [0.0, 0.0, 1.0], "element": "categorical",
        "probs": [0.6, 0.4], "n": 50, "seed": 3,
    })
    code, out = run_cli("sample", "--config", cfg, "--out", str(workdir / "s"))
    assert code == 0
    rows = [json.loads(l) for l in open(out["files"]["samples"])][1:]
    assert all(len(r["set"]) == 2 for r in rows)
    assert out["mean_cardinality"] == 2.0


def test_gradcheck_defaults(workdir):
    code, out = run_cli("gradcheck", "--out", str(workdir / "g"))
    assert code == 0
    assert out["max_rel_error"] < 1e-4


def test_seed_flag_overrides_config(workdir):
    cfg = write_config(workdir, "seedtest.json",
                       {"task": "counting", "n": 50, "d": 4, "seed": 1})
    code, out = run_cli("synth", "--config", cfg, "--seed", "42",
                        "--out", str(workdir / "seedrun"))
    assert code == 0
    assert out["seed"] == 42
    header = json.loads(open(out["files"]["data"]).readline())
    assert header["seed"] == 42


class TestErrorCodes:
    def test_unknown_key_is_config_error(self, workdir):
        cfg = write_config(workdir, "bad1.json",
                           {"task": "counting", "bogus": 1})
        code, out = run_cli("synth", "--config", cfg, "--out", str(workdir))
        assert code == 1
        assert out["code"] == "config"

    def test_missing_required_key(self, workdir):
        cfg = write_config(workdir, "bad2.json", {"n": 10})
        code, out = run_cli("synth", "--config", cfg, "--out", str(workdir))
        assert code == 1
        assert out["code"] == "config"

    def test_missing_file_is_data_error(self, workdir):
        cfg = write_config(workdir, "bad3.json",
                           {"data": str(workdir / "nope.jsonl")})
        code, out = run_cli("train", "--config", cfg, "--out", str(workdir))
        assert code == 1
        assert out["code"] == "data"

    def test_numeric_error(self, workdir):
        # A NaN weight makes the head's alpha NaN: no valid NB to decode.
        # (An out-of-range sample parameter such as a = -1 is a config error.)
        from setnet import init_model, save_model
        model = init_model([2, 2], seed=0)
        model.weights[0][0, 0] = float("nan")
        save_model(model, str(workdir / "nan_model.json"))
        (workdir / "nan_feats.jsonl").write_text('{"features": [1.0, 0.0]}\n')
        cfg = write_config(workdir, "bad4.json",
                           {"model": str(workdir / "nan_model.json"),
                            "features": str(workdir / "nan_feats.jsonl")})
        code, out = run_cli("predict", "--config", cfg, "--out", str(workdir))
        assert code == 1
        assert out["code"] == "numeric", out
        assert "alpha must be finite" in out["message"]

    def test_rejected_box_row_is_data_error(self, capsys, tmp_path):
        proposals = tmp_path / "proposals.txt"
        proposals.write_text("1 0 0 5 5 0.5\n1 0 0 0 5 0.5\n")
        code, lines, err = run_main(capsys, tmp_path, "nms", {
            "proposals": str(proposals), "mstar_fixed": 1})
        assert code == 1 and err == ""
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert out["code"] == "data"
        assert out["message"].startswith(f"{proposals}:2: ")

    def test_predict_feature_rows_must_fit_the_model(self, capsys, tmp_path):
        from setnet import init_model, save_model
        save_model(init_model([2, 3, 2], seed=0), str(tmp_path / "model.json"))
        feats = tmp_path / "feats.jsonl"
        cfg = {"model": str(tmp_path / "model.json"), "features": str(feats)}
        feats.write_text('{"features": [0.1, 0.2]}\n{"features": [0.1, 0.2, 0.3]}\n')
        code, lines, err = run_main(capsys, tmp_path, "predict", cfg)
        assert code == 1 and err == "" and len(lines) == 1
        out = json.loads(lines[0])
        assert out["code"] == "numeric"
        assert out["message"] == f"{feats}: record 1 has 3 features; the model takes 2"
        # A file without rows predicts nothing.
        feats.write_text("")
        code, lines, _ = run_main(capsys, tmp_path, "predict", cfg)
        assert code == 0 and json.loads(lines[0])["n"] == 0

    def test_bad_flag_is_config_error(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "setnet.cli", "no-such-command"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout.strip())["code"] == "config"


# Every config key's type.  "?" marks the keys whose default is null.
KEY_TYPES = {
    "synth": {"task": "choice", "n": "int", "d": "int", "C": "int",
              "seed": "int", "noise": "float", "alpha_map": "object?",
              "beta_map": "object?", "image_size": "float",
              "cell_count": "int", "box_size": "float", "jitter": "float",
              "duplicates": "int", "fp_rate": "float", "crowd_frac": "float"},
    "train": {"data": "str", "loss": "choice", "hidden": "list[int]",
              "activation": "choice", "alpha_max": "float",
              "beta_max": "float", "floor": "float",
              "learning_rate": "float", "momentum": "float",
              "weight_decay": "float", "epochs": "int", "batch_size": "int",
              "seed": "int"},
    "predict": {"model": "str", "features": "str", "seed": "int"},
    "eval-ml": {"records": "str", "mode": "choice", "pred": "str?",
                "k_values": "list[int]?", "seed": "int"},
    "eval-det": {"dets": "str", "gts": "str", "iou_thresh": "float",
                 "n_images": "int?", "seed": "int"},
    "nms": {"proposals": "str", "mstar_fixed": "int?", "mstar_file": "str?",
            "mstar_model": "str?", "mstar_features": "str?", "t0": "float",
            "step": "float", "t_max": "float", "seed": "int"},
    "sample": {"card": "choice", "a": "float", "b": "float",
               "pmf": "list[float]?", "element": "choice",
               "probs": "list[float]", "lo": "float", "hi": "float",
               "n": "int", "seed": "int"},
    "gradcheck": {"d": "int", "hidden": "list[int]", "batch": "int",
                  "h": "float", "loss": "choice", "seed": "int"},
}
WRONG = {
    "int": [2.5, True, "3", [3]],
    "float": [True, "0.5", [0.5]],
    "str": [5, True, ["x"]],
    "choice": ["no-such", 5],
    "object": [5, [1], "x"],
    "list[int]": [3, ["x"], [1.5], [True]],
    "list[float]": [3, ["x"], [True]],
}
# The required keys, filled with well-typed values.
REQUIRED = {
    "synth": {"task": "counting"},
    "train": {"data": "data.jsonl"},
    "predict": {"model": "model.json", "features": "data.jsonl"},
    "eval-ml": {"records": "records.jsonl"},
    "eval-det": {"dets": "dets.txt", "gts": "gt.txt"},
    "nms": {"proposals": "proposals.txt"},
    "sample": {"n": 10},
    "gradcheck": {},
}


def _wrong_cases():
    for command, keys in KEY_TYPES.items():
        for key, kind in keys.items():
            values = list(WRONG[kind.rstrip("?")])
            if not kind.endswith("?"):
                values.append(None)
            for value in values:
                yield pytest.param(command, key, value,
                                   id=f"{command}-{key}-{json.dumps(value)}")


def run_main(capsys, tmp_path, command, cfg):
    from setnet import cli
    path = write_config(tmp_path, "cfg.json", cfg)
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


@pytest.mark.parametrize("command,key,value", _wrong_cases())
def test_wrongly_typed_value_is_config_error(capsys, tmp_path, command, key,
                                             value):
    code, lines, err = run_main(capsys, tmp_path, command,
                                {**REQUIRED[command], key: value})
    assert code == 1
    assert len(lines) == 1 and json.loads(lines[0])["code"] == "config", lines
    assert err == ""


def test_integral_float_and_int_values_are_cast_but_echoed_as_given(
        capsys, tmp_path):
    code, lines, _ = run_main(capsys, tmp_path, "synth", {
        "task": "counting", "n": 5.0, "d": 3, "noise": 0, "seed": 3.0,
    })
    assert code == 0
    payload = json.loads(lines[0])
    assert payload["config"]["n"] == 5.0 and isinstance(payload["config"]["n"], float)
    assert payload["n"] == 5 and payload["seed"] == 3
    rows = open(payload["files"]["data"]).read().splitlines()[1:]
    assert len(rows) == 5 and len(json.loads(rows[0])["features"]) == 3


# config_hash of each command's default config (required keys as in
# REQUIRED): pins every default and the key set.
GOLDEN_HASHES = {
    "synth": "afe1357cb0d8",
    "train": "22d420d46980",
    "predict": "949ae8da208e",
    "eval-ml": "a84f3c02a1eb",
    "eval-det": "a0696ba423fb",
    "nms": "1c5b991fa873",
    "sample": "428a161780a3",
    "gradcheck": "3f40c7575f4b",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_HASHES))
def test_default_config_hash(tmp_path, command):
    from setnet import cli, formats
    path = write_config(tmp_path, "cfg.json", REQUIRED[command])
    given, _ = cli._resolve_config(command, path, None)
    assert sorted(given) == sorted(KEY_TYPES[command])
    assert formats.config_hash(given) == GOLDEN_HASHES[command]


# Well-typed values that a library dataclass (or the m* lookup) rejects as
# out of range.
OUT_OF_RANGE = [
    ("nms", {"t0": 0.6, "t_max": 0.5}),
    ("nms", {"step": 0}),
    ("nms", {"mstar_fixed": -1}),
    ("train", {"epochs": 0}),
    ("train", {"alpha_max": 0.0}),
    ("synth", {"task": "boxes", "cell_count": 0}),
    ("synth", {"task": "counting", "d": 2}),
    ("synth", {"task": "multilabel", "d": 1}),
    ("synth", {"alpha_map": {"weights": [1, 2, 3, 4, 5, 6, 7, 8, 9],
                             "bias": 0.0, "lo": 0.1, "hi": 1.0}}),
    ("sample", {"a": -1.0}),
    ("sample", {"a": 0.0}),
    ("sample", {"b": 0.0}),
    ("sample", {"b": 1.0}),
    ("sample", {"b": 1.5}),
    ("sample", {"card": "pmf", "pmf": [0.5, -0.1, 0.6]}),
    ("sample", {"card": "pmf", "pmf": [0.0, 0.0]}),
    ("sample", {"probs": [0.0, 0.0, 0.0]}),
    ("sample", {"probs": [0.5, -0.5, 1.0]}),
    ("sample", {"n": -2}),
    # The files these commands name do not exist: the range check comes first.
    ("eval-det", {"n_images": 0}),
    ("eval-det", {"n_images": -3}),
    ("eval-det", {"iou_thresh": 1.5}),
    ("eval-det", {"iou_thresh": 0.0}),
    ("eval-ml", {"k_values": []}),
    ("train", {"hidden": [0]}),
    ("train", {"hidden": [-1]}),
    ("gradcheck", {"hidden": [8, 0]}),
    ("gradcheck", {"batch": 0}),
    ("gradcheck", {"d": 0}),
    ("gradcheck", {"h": -1}),
    ("gradcheck", {"h": 0}),
]


@pytest.mark.parametrize(
    "command,cfg", OUT_OF_RANGE,
    ids=[f"{c}-{json.dumps(v)}" for c, v in OUT_OF_RANGE])
def test_out_of_range_value_is_config_error(capsys, tmp_path, command, cfg):
    proposals = tmp_path / "proposals.txt"
    proposals.write_text("1 0 0 5 5 0.5\n")
    required = ({"proposals": str(proposals), "mstar_fixed": 1}
                if command == "nms" else REQUIRED[command])
    code, lines, err = run_main(capsys, tmp_path, command, {**required, **cfg})
    assert code == 1
    assert len(lines) == 1 and json.loads(lines[0])["code"] == "config", lines
    assert err == ""


# eval-ml inputs the reader or the command rejects: (id, records' score
# counts, prediction modes or None for fixed-k, extra config, code, message
# start).  "@records" and "@pred" stand for the two files' paths.
RAGGED = "@records: record 1 has 2 scores; record 0 has 3"
EVAL_ML_REJECTS = [
    ("ragged-fixed-k", [3, 2, 3], None, {}, "data", RAGGED),
    ("ragged-predicted-k", [3, 2, 3], [1, 1, 1], {}, "data", RAGGED),
    ("k-above-C", [3, 3], None, {"k_values": [1, 5]}, "config",
     "k_values must lie in [0, C=3], got 5"),
    ("k-negative", [3, 3], None, {"k_values": [-1]}, "config",
     "k_values must lie in [0, C=3], got -1"),
    ("mode-missing", [3, 3], [1, "missing"], {}, "data", "@pred: record 1: "),
    ("mode-negative", [3, 3], [1, -1], {}, "data", "@pred: record 1: "),
    ("mode-fractional", [3, 3], [1, 1.7], {}, "data", "@pred: record 1: "),
    ("mode-bool", [3, 3], [1, True], {}, "data", "@pred: record 1: "),
    ("mode-null", [3, 3], [1, None], {}, "data", "@pred: record 1: "),
    ("too-few-modes", [3, 3, 3], [1, 1], {}, "data", "2 predictions for 3 records"),
    # Every prediction row is parsed before the rows are counted.
    ("bad-mode-and-too-few", [3, 3, 3], [1, "missing"], {}, "data", "@pred: record 1: "),
]


@pytest.mark.parametrize("n_scores,modes,extra,code,message",
                         [case[1:] for case in EVAL_ML_REJECTS],
                         ids=[case[0] for case in EVAL_ML_REJECTS])
def test_eval_ml_rejects(capsys, tmp_path, n_scores, modes, extra, code,
                         message):
    records = tmp_path / "records.jsonl"
    records.write_text("".join(
        json.dumps({"scores": [0.5] * n, "truth": [0]}) + "\n" for n in n_scores))
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(
        json.dumps({} if m == "missing" else {"mode": m}) + "\n"
        for m in modes or []))
    cfg = {"records": str(records), **extra}
    if modes is not None:
        cfg.update(mode="predicted-k", pred=str(pred))
    status, lines, err = run_main(capsys, tmp_path, "eval-ml", cfg)
    assert status == 1 and err == "" and len(lines) == 1, (lines, err)
    out = json.loads(lines[0])
    assert sorted(out) == ["code", "message"]
    assert out["code"] == code, out
    assert out["message"].startswith(
        message.replace("@records", str(records)).replace("@pred", str(pred))), out


def test_eval_ml_rejects_records_without_scores(capsys, tmp_path):
    # With C = 0 there is no class to average over: the metrics would be NaN.
    records = tmp_path / "records.jsonl"
    records.write_text('{"scores": [], "truth": []}\n' * 2)
    status, lines, err = run_main(capsys, tmp_path, "eval-ml", {"records": str(records)})
    assert status == 1 and err == "" and len(lines) == 1, (lines, err)
    assert json.loads(lines[0]) == {"code": "data",
                                    "message": f"{records}: record 0 has no scores"}

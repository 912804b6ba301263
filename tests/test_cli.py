"""CLI surface: subcommands, error codes, reproducibility of artifacts."""

import dataclasses
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from setnet import DataError, NegBinParams, NumericError, nb_pmf_truncated
from setnet.detect import match_tables
from setnet.formats import read_boxes


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


def without_timings(out):
    """Result lines without their ``timings_ms``, which vary from run to run."""
    return re.sub(r', "timings_ms": \{[^{}]*\}', "", out)


def test_one_parser_serves_every_call(capsys, tmp_path):
    # main parses with one parser per process: after a bad command line, and
    # from one subcommand to another, each call prints what a fresh process
    # does, bar the stage times.
    from setnet import cli
    synth = write_config(tmp_path, "synth.json", {"task": "counting", "n": 20, "d": 4, "seed": 1})
    sample = write_config(tmp_path, "sample.json", {
        "card": "pmf", "pmf": [0.0, 0.0, 1.0], "element": "categorical",
        "probs": [0.6, 0.4], "n": 50, "seed": 3,
    })
    for argv in (["synth", "--config", synth, "--bogus"],
                 ["synth", "--config", synth, "--out", str(tmp_path / "a")],
                 ["sample", "--config", sample, "--out", str(tmp_path / "b")],
                 ["synth", "--config", synth, "--seed", "4", "--out", str(tmp_path / "c")]):
        fresh = subprocess.run([sys.executable, "-m", "setnet.cli", *argv],
                               capture_output=True, text=True)
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert "timings_ms" in out or code
        assert (code, without_timings(out)) == (fresh.returncode, without_timings(fresh.stdout))
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: setnet")


def test_a_call_leaves_no_cyclic_garbage(capsys, tmp_path):
    # The parser outlives the call, so the collector finds nothing after it.
    from setnet import cli
    argv = ["sample", "--config", write_config(tmp_path, "sample.json", {
        "card": "pmf", "pmf": [0.0, 0.0, 1.0], "element": "categorical",
        "probs": [0.6, 0.4], "n": 50, "seed": 3,
    }), "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0  # a first call may fill caches
    gc.collect()
    assert cli.main(argv) == 0
    assert gc.collect() == 0


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


# NB laws whose pmf holds more than 1e-12 of their mass beyond its cap of
# 10**6 counts: sampling them would draw from a truncated law.
@pytest.mark.parametrize("a", [2000, 1e6])
def test_sample_rejects_an_nb_law_the_pmf_cap_truncates(capsys, tmp_path, a):
    code, lines, err = run_main(capsys, tmp_path, "sample",
                                {"card": "negbin", "a": a, "b": 0.999, "n": 2})
    assert (code, err) == (1, "")
    assert json.loads(lines[0]) == {"code": "config", "message": (
        f"NB law a={float(a)!r}, b=0.999 has more than 1e-12 of its mass beyond "
        "the pmf cap of 1000000 counts")}


def test_sample_draws_from_an_nb_law_near_the_pmf_cap(capsys, tmp_path):
    # 276,971 counts hold all but 1e-12 of this law's mass.
    assert len(nb_pmf_truncated(NegBinParams(a=1.0, b=0.9999))) == 276_971
    code, lines, err = run_main(capsys, tmp_path, "sample",
                                {"card": "negbin", "a": 1.0, "b": 0.9999, "n": 2})
    assert (code, err) == (0, "")
    rows = [json.loads(l) for l in open(json.loads(lines[0])["files"]["samples"])][1:]
    assert len(rows) == 2


def test_sample_rejects_an_nb_law_whose_log_gamma_overflows(capsys, tmp_path):
    # ln Gamma(1e308) overflows, so the pmf is NaN: the law ends at the pmf cap
    # as one config line, and no RuntimeWarning of its evaluation reaches stderr.
    code, lines, err = run_main(capsys, tmp_path, "sample", {"n": 2, "a": 1e308})
    assert (code, err) == (1, "")
    assert lines == [json.dumps({"code": "config", "message": (
        "NB law a=1e+308, b=0.5 has more than 1e-12 of its mass beyond "
        "the pmf cap of 1000000 counts")})]


def test_gradcheck_defaults(workdir):
    code, out = run_cli("gradcheck", "--out", str(workdir / "g"))
    assert code == 0
    assert out["max_rel_error"] < 1e-4


@pytest.mark.parametrize("cfg,err", [
    ({}, 4.806018783416036e-07),
    ({"seed": 5, "batch": 20, "d": 6, "hidden": [5, 3]}, 1.1120197564023567e-06),
    ({"loss": "regression", "seed": 2}, 3.063679522414723e-08),
])
def test_gradcheck_reports_the_pinned_error(capsys, tmp_path, cfg, err):
    code, lines, _ = run_main(capsys, tmp_path, "gradcheck", cfg)
    assert code == 0
    assert json.loads(lines[-1])["max_rel_error"] == err


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

    @pytest.mark.parametrize("extra,says", [
        # A ground truth that rounds to zero extent.
        ({"image_size": 1e17, "box_size": 1.0}, "box must have positive extent: BoxDetection("
         "x1=6.491104534486355e+16, y1=9.537033997792509e+16, x2=6.491104534486355e+16, "
         "y2=9.537033997792509e+16, score=1.0)"),
        # A proposal whose shift swamps its width.
        ({"jitter": 1e300, "n": 20}, "box must have positive extent: BoxDetection("
         "x1=-1.0697599926144482e+301, y1=2.4152760816356014e+300, x2=-1.0697599926144482e+301, "
         "y2=2.4152760816356014e+300, score=0.7832410331185943)"),
        # A false positive in a scene without ground truths.
        ({"image_size": 1e17, "box_size": 1.0, "fp_rate": 3.0,
          "alpha_map": {"weights": [], "bias": 0.01, "lo": 0.01, "hi": 0.01}},
         "box must have positive extent: BoxDetection(x1=3.439818767017386e+16, "
         "y1=1.6711384330005484e+16, x2=3.439818767017386e+16, y2=1.6711384330005484e+16, "
         "score=0.16275113094581686)"),
    ])
    def test_generated_box_fault_is_one_numeric_line(self, capsys, tmp_path, extra, says):
        code, lines, err = run_main(capsys, tmp_path, "synth",
                                    {"task": "boxes", "n": 5, "seed": 1, **extra})
        assert code == 1 and err == ""
        assert [json.loads(line) for line in lines] == [{"code": "numeric", "message": says}]

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
    ("train", {"alpha_max": float("inf")}),
    ("synth", {"task": "boxes", "cell_count": 0}),
    # Box settings numpy would reject as numeric, or that would pass silently.
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "jitter": -1}),
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "fp_rate": -1}),
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "cell_count": 1, "box_size": 1}),
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "image_size": float("nan")}),
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "duplicates": -2}),
    ("synth", {"task": "boxes", "n": 5, "seed": 1, "crowd_frac": -1}),
    ("synth", {"task": "counting", "d": 2}),
    ("synth", {"task": "multilabel", "d": 1}),
    ("synth", {"alpha_map": {"weights": [1, 2, 3, 4, 5, 6, 7, 8, 9],
                             "bias": 0.0, "lo": 0.1, "hi": 1.0}}),
    # NaN and Infinity read as JSON; each range test is written so that both fail it.
    ("nms", {"step": float("nan")}),
    ("nms", {"step": float("inf")}),
    ("nms", {"step": 1e-6}),  # 550,001 thresholds: the sweep's length is bounded
    ("train", {"learning_rate": float("nan")}),
    ("train", {"learning_rate": float("inf")}),
    ("train", {"weight_decay": float("nan")}),
    ("train", {"weight_decay": float("inf")}),
    ("sample", {"element": "uniform", "hi": float("inf")}),
    ("sample", {"element": "uniform", "lo": float("-inf")}),
    ("sample", {"element": "uniform", "lo": -1e308, "hi": 1e308}),  # hi - lo overflows
    ("synth", {"alpha_map": {"weights": [float("nan")], "bias": 0.0, "lo": 0.1, "hi": 1.0}}),
    ("synth", {"alpha_map": {"weights": [1.0], "bias": float("nan"), "lo": 0.1, "hi": 1.0}}),
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


# Every command seeds numpy with a u64: a seed outside [0, 2**64) is one config line,
# given in the config or by --seed, before any file is read.
@pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_seed_outside_u64_is_one_config_line(capsys, tmp_path, command, by_flag, seed):
    from setnet import cli
    cfg = {**REQUIRED[command], **({} if by_flag else {"seed": seed})}
    flag = ["--seed", str(seed)] if by_flag else []
    code = cli.main([command, "--config", write_config(tmp_path, "cfg.json", cfg), *flag,
                     "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines() == [json.dumps({"code": "config", "message": (
        f"seed must be a non-negative integer below 2**64, got {seed}")})]


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_a_model_trained_at_a_u64_seed_predicts(capsys, tmp_path, monkeypatch, seed):
    # The config rule and the model file's rule are one seed rule: a model
    # that train writes at a seed of 2**63 or above loads for predict.
    from setnet import cli
    monkeypatch.chdir(tmp_path)
    for i, (command, cfg, out) in enumerate(EVERY_COMMAND[i] for i in (0, 3, 4)):
        flag = ["--seed", str(seed)] if command == "train" else []
        code = cli.main([command, "--config", write_config(tmp_path, f"{i}.json", cfg),
                         *flag, "--out", out])
        lines, err = capsys.readouterr()
        assert (code, err) == (0, ""), lines
        assert command != "train" or json.loads(lines)["seed"] == seed


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


# A rejected weight list is named by its key and its first bad entry, or its
# sum, never spelled out: 100,000 entries still make one short config line.
@pytest.mark.parametrize("key,values,message", [
    ("pmf", [0.0] * 100_000, "pmf must have a positive finite sum, got 0.0"),
    ("probs", [0.5] * 99_999 + [-1.0], "probs entries must be finite and >= 0, "
                                       "got probs[99999] = -1.0"),
    ("pmf", [1e308, 1e308], "pmf must have a positive finite sum, got inf"),  # no overflow warning
], ids=["pmf-sum", "probs-entry", "pmf-overflow"])
def test_rejected_weight_list_is_one_short_config_line(capsys, tmp_path, key, values, message):
    code, lines, err = run_main(capsys, tmp_path, "sample", {"card": "pmf", "pmf": [1.0],
                                                             key: values, "n": 1})
    assert (code, err) == (1, "")
    (line,) = lines
    assert len(line.encode()) < 1024
    assert json.loads(line) == {"code": "config", "message": message}


# 56.8 PiB, more than any address space holds: numpy refuses it at once.
@pytest.mark.parametrize("command,cfg", [("synth", {"task": "counting", "n": 1e15}),
                                         ("gradcheck", {"d": 1e15})], ids=["synth", "gradcheck"])
def test_failed_allocation_is_one_numeric_line(capsys, tmp_path, command, cfg):
    code, lines, err = run_main(capsys, tmp_path, command, cfg)
    assert (code, err) == (1, "")
    (doc,) = map(json.loads, lines)
    assert set(doc) == {"code", "message"} and doc["code"] == "numeric"
    assert doc["message"].startswith("Unable to allocate 56.8 PiB")


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


# -- record files: every bad record is one data line naming file and record ---

# Valid records of each kind that a command reads.
VALID_RECORDS = {
    "counting": [{"features": [0.1, -0.2, 0.3], "count": c} for c in (1, 0, 2)],
    "features": [{"features": [0.1, -0.2, 0.3]} for _ in range(3)],
    "multilabel": [{"scores": [0.9, 0.1, 0.5], "truth": t} for t in ([0], [], [0, 2])],
    "prediction": [{"mode": m} for m in (1, 0, 2)],
    # Image 4 has no proposals: an m* file may name more images than nms sees.
    "mstar": [{"image_id": i, "count": c} for i, c in ((1, 1), (2, 0), (3, 2), (4, 1))],
}


def run_records(capsys, tmp_path, kind, rows):
    """Run the command that reads ``rows`` as a file of record kind ``kind``:
    train, predict, eval-ml (fixed-k on multi-label records, predicted-k on
    predictions) or nms; returns its status, stdout lines, stderr and the
    file's path."""
    from setnet import init_model, save_model
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    if kind == "counting":
        command, cfg = "train", {"data": str(path), "epochs": 1, "hidden": [2]}
    elif kind == "features":
        model = tmp_path / "model.json"
        save_model(init_model([3, 2, 2], seed=0), str(model))
        command, cfg = "predict", {"model": str(model), "features": str(path)}
    elif kind == "multilabel":
        command, cfg = "eval-ml", {"records": str(path)}
    elif kind == "prediction":
        records = tmp_path / "records.jsonl"
        records.write_text("".join(json.dumps(r) + "\n" for r in VALID_RECORDS["multilabel"]))
        command, cfg = "eval-ml", {"records": str(records), "mode": "predicted-k",
                                   "pred": str(path)}
    else:
        proposals = tmp_path / "proposals.txt"
        proposals.write_text("1 0 0 5 5 0.9\n2 0 0 5 5 0.8\n2 1 1 6 6 0.7\n3 0 0 4 4 0.6\n")
        command, cfg = "nms", {"proposals": str(proposals), "mstar_file": str(path)}
    return (*run_main(capsys, tmp_path, command, cfg), str(path))


MISSING = object()
# (id, record kind, record, field, its bad value, what the message says after
# "<path>: record <record>").
BAD_RECORDS = [
    ("count-fraction", "counting", 1, "count", 2.5, ": count must be a non-negative integer"),
    ("count-bool", "counting", 1, "count", True, ": count must be a non-negative integer"),
    ("count-negative", "counting", 2, "count", -1, ": count must be a non-negative integer"),
    ("count-huge", "counting", 1, "count", 10**30, ": count must be a non-negative integer"),
    ("feature-nan", "counting", 1, "features", [0.1, float("nan"), 0.3],
     ": features must be finite"),
    ("features-ragged", "counting", 1, "features", [0.1, 0.2], " has 2 features; record 0 has 3"),
    ("features-empty", "counting", 0, "features", [], " has no features"),
    ("features-string", "counting", 1, "features", "123", ": features must be a list"),
    # Features and scores are JSON numbers: no bools or strings, and no
    # integer too large for a float.
    ("feature-huge-int", "counting", 1, "features", [0.1, 10**400, 0.3],
     ": features must be finite"),
    ("feature-bool", "counting", 2, "features", [0.1, True, 0.3],
     ": could not convert True to float: features must be numbers"),
    ("feature-numeric-string", "counting", 1, "features", [0.1, "1.5", 0.3],
     ": could not convert '1.5' to float: features must be numbers"),
    ("score-huge-int", "multilabel", 2, "scores", [0.9, -10**400, 0.5],
     ": scores must be finite"),
    ("score-bool", "multilabel", 1, "scores", [0.9, False, 0.5],
     ": could not convert False to float: scores must be numbers"),
    ("predict-feature-nan", "features", 2, "features", [float("nan"), 0.0, 0.0],
     ": features must be finite"),
    ("truth-fraction", "multilabel", 1, "truth", [1.5], ": truth label must be a non-negative"),
    ("truth-bool", "multilabel", 2, "truth", [True], ": truth label must be a non-negative"),
    ("scores-string", "multilabel", 1, "scores", "123", ": scores must be a list"),
    ("mode-huge", "prediction", 1, "mode", 10**30, ": mode must be a non-negative integer"),
    ("mstar-fraction", "mstar", 1, "count", 1.7, ": count must be a non-negative integer"),
    ("mstar-negative", "mstar", 1, "count", -1, ": count must be a non-negative integer"),
    ("mstar-id-fraction", "mstar", 1, "image_id", 2.5, ": image_id must be a non-negative"),
    ("mstar-repeated-id", "mstar", 3, "image_id", 1, ": image_id 1 repeats record 0"),
    ("mstar-missing-count", "mstar", 1, "count", MISSING, ": no 'count' field"),
]


@pytest.mark.parametrize("kind,record,field,value,says",
                         [case[1:] for case in BAD_RECORDS],
                         ids=[case[0] for case in BAD_RECORDS])
def test_bad_record_is_one_data_line(capsys, tmp_path, kind, record, field, value, says):
    rows = [dict(r) for r in VALID_RECORDS[kind]]
    if value is MISSING:
        del rows[record][field]
    else:
        rows[record][field] = value
    code, lines, err, path = run_records(capsys, tmp_path, kind, rows)
    assert code == 1 and err == "" and len(lines) == 1, (lines, err)
    out = json.loads(lines[0])
    assert sorted(out) == ["code", "message"] and out["code"] == "data", out
    assert out["message"].startswith(f"{path}: record {record}{says}"), out


@pytest.mark.parametrize("kind,field,value,says", [
    ("counting", "count", 2.5, ": count must be a non-negative integer"),
    ("multilabel", "truth", [2, 0], ": labels must be strictly increasing"),
])
def test_bad_record_before_a_line_that_is_not_json_wins(capsys, tmp_path, kind, field,
                                                         value, says):
    # Record 0 is bad and line 3 is not JSON: the earliest fault is record 0.
    rows = [dict(r) for r in VALID_RECORDS[kind]]
    rows[0][field] = value
    path = tmp_path / f"{kind}.jsonl"
    for bad, message in ((True, f"{path}: record 0{says}"), (False, f"{path}:3: invalid JSON")):
        lines = [json.dumps(r) for r in (rows if bad else VALID_RECORDS[kind])]
        path.write_text("\n".join(lines[:2] + ["{not json"] + lines[2:]) + "\n")
        cfg = {"data": str(path), "epochs": 1} if kind == "counting" else {"records": str(path)}
        code, out, err = run_main(capsys, tmp_path, "train" if kind == "counting" else "eval-ml",
                                  cfg)
        assert code == 1 and err == "" and len(out) == 1, (out, err)
        assert json.loads(out[0])["code"] == "data"
        assert json.loads(out[0])["message"].startswith(message), out


@pytest.mark.parametrize("kind,field,value,says", [
    ("counting", "count", 2.5, ": count must be a non-negative integer"),
    ("multilabel", "truth", [2, 0], ": labels must be strictly increasing"),
])
@pytest.mark.parametrize("good", [0, 3000])
def test_bad_record_before_undecodable_bytes_wins(capsys, tmp_path, kind, field, value, says,
                                                  good):
    # Record 0 is bad, and the line after ``good`` more records is not UTF-8,
    # in the same chunk of text as record 0 or far past it: the earliest
    # fault is record 0.
    rows = [dict(r) for r in VALID_RECORDS[kind]]
    rows[0][field] = value
    path = tmp_path / f"{kind}.jsonl"
    for bad, message in ((True, f"{path}: record 0{says}"),
                         (False, f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")):
        lines = [json.dumps(r) for r in (rows if bad else VALID_RECORDS[kind])]
        lines += lines[1:2] * good
        path.write_bytes("".join(line + "\n" for line in lines).encode() + b"\xff\n")
        cfg = {"data": str(path), "epochs": 1} if kind == "counting" else {"records": str(path)}
        code, out, err = run_main(capsys, tmp_path, "train" if kind == "counting" else "eval-ml",
                                  cfg)
        assert code == 1 and err == "" and len(out) == 1, (out, err)
        assert json.loads(out[0])["code"] == "data"
        assert json.loads(out[0])["message"].startswith(message), out


# Any JSON value, NaN and the infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def one_bad_field(draw):
    """(kind, rows): the valid records of a kind, one field set to any JSON value.
    (A features file for predict is left out: a row the model cannot take is
    numeric, as pinned above.)"""
    kind = draw(st.sampled_from(["counting", "multilabel", "prediction", "mstar"]))
    rows = [dict(r) for r in VALID_RECORDS[kind]]
    record = draw(st.integers(0, len(rows) - 1))
    rows[record][draw(st.sampled_from(sorted(rows[record])))] = draw(JSON_VALUES)
    return kind, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(one_bad_field())
@example(("counting", [{"features": [1.7e308] * 3, "count": 1}]))
def test_any_one_bad_field_is_success_or_one_data_line(capsys, tmp_path_factory, case):
    kind, rows = case
    code, lines, err, path = run_records(capsys, tmp_path_factory.mktemp(kind), kind, rows)
    assert err == "" and len(lines) == 1, (lines, err)
    out = json.loads(lines[0])
    if code == 0 or out["code"] == "data":
        return
    # The one numeric outcome: features the reader takes (finite) but that
    # overflow the network.
    from setnet.formats import read_records
    assert kind == "counting" and out["message"].startswith("overflow encountered"), out
    read_records(path, "features", "count")


# -- the column reader against the per-record rules ------------------------------

# The fields that each record kind's reader asks for, and the width it holds
# vectors to (a model's input size for the features of predict).
READS = {"counting": (("features", "count"), None), "features": (("features",), 3),
         "multilabel": (("scores", "truth"), None), "prediction": (("mode",), None),
         "mstar": (("image_id", "count"), None)}
# Values on the edge of a column check: bools, numeric strings, integral
# floats, integers past int64 and past the float range, signed zeros.
EDGE_VALUES = st.sampled_from([True, False, "1.5", None, 2.0, 2.5, -0.0, 0, 1, 3, -1,
                               2**53 + 1, 2**63 - 1, 2**63, 2**64, -2**63, 10**400,
                               1e308, math.inf, math.nan])


def ref_read_records(path, *fields, width=None):
    """``read_records`` by the per-record rules: each line through json.loads,
    then each record's fields in turn, each checked by its rule."""
    from setnet.mlmetrics import LabelSet
    from setnet.numerics import _check_count
    rows, bad_line = [], None
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.strip())
            except json.JSONDecodeError as e:
                bad_line = DataError(f"{path}:{ln + 1}: invalid JSON: {e}")
                break
            if not (ln == 0 and isinstance(doc, dict) and "schema_version" in doc):
                rows.append(doc)

    def listed(value, name):
        if not isinstance(value, list):
            raise TypeError(f"{name} must be a list, got {value!r}")
        return value

    def reals(value, name):
        for v in listed(value, name):
            if type(v) not in (int, float):
                raise TypeError(f"could not convert {v!r} to float: {name} must be numbers")
        try:
            floats = [float(v) for v in value]
        except OverflowError:  # an integer such as 10**400
            floats = [math.inf]
        if not all(map(math.isfinite, floats)):
            raise NumericError(f"{name} must be finite")
        return floats

    def labels(value, name):
        return list(LabelSet(tuple(_check_count(v, f"{name} label")
                                   for v in listed(value, name))).labels)

    rules = {"features": reals, "scores": reals, "truth": labels}
    vector = fields[0] if fields[0] in ("features", "scores") else None
    columns, ids = [[] for _ in fields], {}
    for i, row in enumerate(rows):
        try:
            values = [rules.get(f, _check_count)(row[f], f) for f in fields]
            if fields == ("image_id", "count") and ids.setdefault(values[0], i) != i:
                raise ValueError(f"image_id {values[0]} repeats record {ids[values[0]]}")
            if fields == ("scores", "truth") and values[1] and values[1][-1] >= len(values[0]):
                raise NumericError(
                    f"truth label {values[1][-1]} outside {len(values[0])} categories")
        except KeyError as e:
            raise DataError(f"{path}: record {i}: no {e} field") from e
        except (TypeError, ValueError) as e:
            raise DataError(f"{path}: record {i}: {e}") from e
        if vector:
            first = columns[0][0] if columns[0] else values[0]  # record 0's vector
            if width is None and not first:
                raise DataError(f"{path}: record 0 has no {vector}")
            want = len(first) if width is None else width
            if len(values[0]) != want:
                than = "record 0 has" if width is None else "the model takes"
                raise (DataError if width is None else NumericError)(
                    f"{path}: record {i} has {len(values[0])} {vector}; {than} {want}")
        for column, value in zip(columns, values):
            column.append(value)
    if bad_line is not None:
        raise bad_line
    out = []
    for f, column in zip(fields, columns):
        if f == "truth":  # the (n, C) mask, C the scores' width
            out.append(np.array([[c in labels for c in range(out[0].shape[1])]
                                 for labels in column], dtype=bool).reshape(out[0].shape))
        elif f in ("features", "scores"):
            d = len(column[0]) if column else width or 0
            out.append(np.array(column, dtype=float).reshape(len(column), d))
        else:
            out.append(np.array(column, dtype=np.int64))
    return out


def read_outcome(read, path, fields, width):
    """The columns as (dtype, shape, reprs of the values), or the error."""
    def exact(a):
        return a.dtype.str, a.shape, [repr(v) for v in a.ravel().tolist()]
    try:
        return [tuple(map(exact, c)) if isinstance(c, tuple) else exact(c)
                for c in read(path, *fields, width=width)]
    except (DataError, NumericError) as e:
        return type(e).__name__, str(e)


@st.composite
def record_files(draw):
    """(kind, text): a few valid records of a kind, 0-3 of them spoilt (a field
    set to any JSON value, one list entry set to an edge value, a field left
    out, the record not an object, or the line not JSON)."""
    kind = draw(st.sampled_from(sorted(READS)))
    rows = [dict(r) for r in VALID_RECORDS[kind]][:draw(st.integers(0, 4)) or 4]
    lines = [None] * len(rows)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        field = draw(st.sampled_from(READS[kind][0]))
        how = draw(st.sampled_from(["entry"] * 4 + ["value"] * 3 + ["missing", "row", "line"]))
        if how == "row" or not isinstance(rows[i], dict):
            rows[i] = draw(JSON_VALUES)
        elif how == "value":
            rows[i][field] = draw(EDGE_VALUES | st.lists(EDGE_VALUES, max_size=4) | JSON_VALUES)
        elif how == "entry" and isinstance(rows[i].get(field), list) and rows[i][field]:
            entries = list(rows[i][field])
            entries[draw(st.integers(0, len(entries) - 1))] = draw(EDGE_VALUES)
            rows[i][field] = entries
        elif how == "entry":
            rows[i][field] = draw(EDGE_VALUES)
        elif how == "missing":
            rows[i].pop(field, None)
        elif how == "line":
            lines[i] = draw(st.sampled_from(["{not json", "[1, 2", "{} {}", "nan"]))
    lines = [line or json.dumps(row) for line, row in zip(lines, rows)]
    if draw(st.booleans()):
        lines.insert(0, json.dumps({"schema_version": 1, "seed": 0}))
    return kind, "".join(line + "\n" for line in lines)


def record_text(rows, *lines):
    return "".join(json.dumps(r) + "\n" for r in rows) + "".join(l + "\n" for l in lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(record_files())
# Valid files that the column checks flag: the rules give their values.
@example(("counting", record_text([{"features": [1, -0.0, 2**63 - 1], "count": 2.0}])))
@example(("multilabel", record_text([{"scores": [0.5, 1, 0.25], "truth": [0.0, 2]}])))
# Empty vectors in every record: record 0's must not be.
@example(("counting", record_text([{"features": [], "count": 1}])))
@example(("multilabel", record_text([{"scores": [], "truth": []}] * 2)))
# A bad record before a ragged one and before a line that is not JSON.
@example(("multilabel", record_text([{"scores": [0.5, 0.1], "truth": [2]},
                                     {"scores": [0.5], "truth": []}], "{not json")))
@example(("mstar", record_text([{"image_id": 4, "count": 1}, {"image_id": 4, "count": True}])))
# One fault that a column check sees only as a whole: a repeated image id,
# a repeated label, ragged rows whose values would still fill an n x d
# matrix, truth not a list.
@example(("mstar", record_text([{"image_id": 4, "count": 1}, {"image_id": 4, "count": 2}])))
@example(("multilabel", record_text([{"scores": [0.5, 0.1, 0.2], "truth": [1, 1]}])))
@example(("counting", record_text(*[[{"features": [0.5] * d, "count": 1} for d in (3, 2, 4)]])))
@example(("multilabel", record_text([{"scores": [0.5], "truth": {}}])))
# Edge values that the int64 and float conversions would take.
@example(("prediction", record_text([{"mode": 1}, {"mode": 2.5}])))
@example(("prediction", record_text([{"mode": 1}, {"mode": -1}])))
@example(("multilabel", record_text([{"scores": [0.5, 0.1, 0.2], "truth": [0, 3]}])))
@example(("features", record_text([{"features": [0.1, 10**400, 0.3]},
                                   {"features": [0.1, 0.2]}])))
# Within one record, a field's own rules come before the checks across
# records, and scores and truth before the width: a ragged record whose
# count is bad, a ragged record with a label past its own scores, and
# record 0 with no scores and truth not a list.
@example(("counting", record_text([{"features": [0.5] * 3, "count": 1},
                                   {"features": [0.5] * 2, "count": 2.5}])))
@example(("multilabel", record_text([{"scores": [0.5, 0.1], "truth": [0]},
                                     {"scores": [0.5], "truth": [2]}])))
@example(("multilabel", record_text([{"scores": [], "truth": {}}])))
# Across records, the earliest fault wins whatever its kind: a ragged record
# or a repeated image id before a record with a fault of its own or a line
# that is not JSON, and an empty record 0 before a later record's own fault.
@example(("counting", record_text([{"features": [0.5] * 3, "count": 1},
                                   {"features": [0.5] * 2, "count": 1},
                                   {"features": [0.5] * 3, "count": 2.5}])))
@example(("mstar", record_text([{"image_id": 4, "count": 1}, {"image_id": 4, "count": 2},
                                {"image_id": 5, "count": 2.5}])))
@example(("multilabel", record_text([{"scores": [0.5, 0.1], "truth": [0]},
                                     {"scores": [0.5], "truth": []}], "{not json")))
@example(("features", record_text([{"features": [0.5] * 3}, {"features": [0.5] * 2}],
                                  "[1, 2")))
@example(("counting", record_text([{"features": [], "count": 1},
                                   {"features": [0.5], "count": 1},
                                   {"features": [0.5], "count": -1}])))
@example(("multilabel", record_text([{"scores": [], "truth": []},
                                     {"scores": [0.5], "truth": [1]}])))
def test_column_reader_agrees_with_per_record_rules(tmp_path_factory, case):
    from setnet.formats import read_records
    kind, text = case
    path = tmp_path_factory.mktemp(kind) / "records.jsonl"
    path.write_text(text)
    fields, width = READS[kind]
    assert (read_outcome(read_records, str(path), fields, width)
            == read_outcome(ref_read_records, str(path), fields, width))


@pytest.mark.parametrize("case,says", [
    ("not-an-object", "model document is not a JSON object"),
    ("bad-activation", "invalid model document: unknown activation 'softmax'"),
    ("bad-layer-shape", "invalid model document: layer 1 does not chain"),
    ("bad-head-floor", "invalid model document: floor must be >= 0"),
    ("bad-head-scale", "invalid model document: head scales must be finite"),
    ("fractional-seed", "invalid model document: seed must be a non-negative integer"),
    ("wrong-dims", "invalid model document: dims [7, 7] do not match the layers' [3, 2, 2]"),
    ("too-deep", "model file is not valid JSON: maximum recursion depth"),
])
def test_malformed_model_file_is_data_error(capsys, tmp_path, case, says):
    from setnet import init_model
    from setnet.cardnet import model_to_json
    doc = json.loads(model_to_json(init_model([3, 2, 2], seed=0)))
    if case == "not-an-object":
        doc = []
    elif case == "bad-activation":
        doc["activation"] = "softmax"
    elif case == "bad-layer-shape":
        doc["layers"][1]["weights"] = [[0.5, 0.5, 0.5]] * 2
    elif case == "bad-head-floor":
        doc["head"]["floor"] = -1.0
    elif case == "bad-head-scale":
        doc["head"]["alpha_max"] = float("inf")
    elif case == "fractional-seed":
        doc["seed"] = 2.5
    elif case == "wrong-dims":
        doc["dims"] = [7, 7]
    model = tmp_path / "model.json"
    model.write_text("[" * 50000 + "]" * 50000 if case == "too-deep" else json.dumps(doc))
    features = tmp_path / "features.jsonl"
    features.write_text('{"features": [0.1, 0.2, 0.3]}\n')
    code, lines, err = run_main(capsys, tmp_path, "predict",
                                {"model": str(model), "features": str(features)})
    assert code == 1 and err == "" and len(lines) == 1, (lines, err)
    out = json.loads(lines[0])
    assert out["code"] == "data" and out["message"].startswith(f"{model}: {says}"), out


# A map is an object of exactly weights (a list of numbers), bias, lo and hi
# (numbers), cast by the schema like any other value; whatever is wrong with
# it, the error is one config line that names the map's key.
GOOD_MAP = {"weights": [1.0, 2.0], "bias": 0.0, "lo": 0.1, "hi": 1.0}
BAD_MAPS = [
    ("alpha_map", {**GOOD_MAP, "weights": "12"}),
    ("alpha_map", {**GOOD_MAP, "bias": True}),
    ("alpha_map", {**GOOD_MAP, "lo": "0.1"}),
    ("alpha_map", {**GOOD_MAP, "wieghts": [1.0]}),
    ("alpha_map", {k: v for k, v in GOOD_MAP.items() if k != "hi"}),
    ("beta_map", {**{k: v for k, v in GOOD_MAP.items() if k != "bias"}, "bais": 0.0}),
    ("alpha_map", {}),
    ("alpha_map", {**GOOD_MAP, "weights": [[1.0]]}),
    ("alpha_map", {**GOOD_MAP, "weights": [10**400]}),  # beyond the float range
    ("beta_map", {**GOOD_MAP, "lo": 0}),
]


@pytest.mark.parametrize("key,value", BAD_MAPS, ids=[
    "weights-string", "bias-bool", "lo-string", "unknown-field", "missing-field",
    "misspelt-field", "empty",
    "weights-nested", "weights-huge-int", "beta-lo-zero"])
def test_bad_map_is_one_config_line_naming_its_key(capsys, tmp_path, key, value):
    cfg = {"task": "counting", "n": 200, "d": 3, "seed": 1, key: value}
    code, lines, err = run_main(capsys, tmp_path, "synth", cfg)
    assert (code, err) == (1, "")
    (line,) = lines
    assert len(line.encode()) < 1024
    out = json.loads(line)
    assert out["code"] == "config" and f"'{key}'" in out["message"], out
    # A map with unknown or missing fields names them all.
    unknown = sorted(value.keys() - GOOD_MAP.keys())
    missing = [f for f in GOOD_MAP if f not in value]
    if unknown or missing:
        assert f"unknown fields {unknown}, missing fields {missing}" in out["message"], out


def test_good_map_is_cast_like_its_numbers(capsys, tmp_path):
    # Integers and an integral weight give the same map, rows and echo as floats.
    cfg = {"task": "counting", "n": 20, "d": 3, "seed": 1}
    rows = []
    for given in (GOOD_MAP, {"weights": [1, 2], "bias": 0, "lo": 0.1, "hi": 1}):
        code, lines, _ = run_main(capsys, tmp_path, "synth", {**cfg, "alpha_map": given})
        assert code == 0
        out = json.loads(lines[0])
        assert out["config"]["alpha_map"] == given
        rows.append(open(out["files"]["data"]).read().splitlines()[1:])
    assert rows[0] == rows[1]


# A config error spells a given value by reprlib: a long one is cut short.
LONG_VALUES = [
    ("sample", {"card": "pmf", "pmf": [True] * 100_000, "n": 1}),
    ("train", {"data": "data.jsonl", "hidden": [0] * 100_000}),
    ("synth", {"task": "y" * 100_000}),
    ("synth", {"task": "counting", "alpha_map": {**GOOD_MAP, "weights": ["x"] * 100_000}}),
    ("synth", {"task": "counting", **{f"key{i}": 0 for i in range(100_000)}}),
]


@pytest.mark.parametrize("command,cfg", LONG_VALUES,
                         ids=["pmf-bools", "hidden-zeros", "task-long", "weights-strings",
                              "unknown-keys"])
def test_config_error_line_is_short(capsys, tmp_path, command, cfg):
    code, lines, err = run_main(capsys, tmp_path, command, cfg)
    assert (code, err) == (1, "")
    (line,) = lines
    assert len(line.encode()) < 1024
    assert json.loads(line)["code"] == "config"


def _one_cast(kind):
    """Whether ``_cast`` has one rule for schema type ``kind``: int, float,
    str, a tuple of choices, list[x] or tuple[x, ...] of one of the first
    three, or a dataclass whose fields are all such types."""
    from setnet import cli
    if kind in (int, float, str):
        return True
    if isinstance(kind, tuple):
        return all(isinstance(c, str) for c in kind)
    if isinstance(kind, types.GenericAlias):
        return ((kind.__origin__, kind.__args__[1:]) in ((list, ()), (tuple, (...,)))
                and kind.__args__[0] in (int, float, str))
    if isinstance(kind, type) and dataclasses.is_dataclass(kind):
        return all(_one_cast(t) for t, _ in cli._fields(kind).values())
    return False


@pytest.mark.parametrize("command", sorted(KEY_TYPES))
def test_schema_types_have_one_cast(command):
    # No bare dict or list: every value, however nested, is cast by the schema.
    from setnet import cli
    assert {k: kind for k, (kind, _) in cli.SCHEMAS[command].items()
            if not _one_cast(kind)} == {}


def test_eval_det_n_images_covers_the_images_in_the_files(capsys, tmp_path):
    # n_images also counts images without boxes, so it cannot be below the
    # number of images the files name: 3 here (one only in the dets).
    dets = tmp_path / "dets.txt"
    dets.write_text("1 0 0 5 5 0.9\n2 0 0 5 5 0.8\n7 0 0 5 5 0.4\n")
    gts = tmp_path / "gts.txt"
    gts.write_text("1 0 0 5 5\n2 0 0 5 5\n")
    cfg = {"dets": str(dets), "gts": str(gts), "n_images": 2}
    code, lines, err = run_main(capsys, tmp_path, "eval-det", cfg)
    assert code == 1 and err == "" and len(lines) == 1, (lines, err)
    assert json.loads(lines[0]) == {
        "code": "config",
        "message": "n_images must be null or at least the 3 images in the dets and gts "
                   "files, got 2"}
    code, lines, _ = run_main(capsys, tmp_path, "eval-det", {**cfg, "n_images": 3})
    assert code == 0 and json.loads(lines[0])["n_images"] == 3


@pytest.mark.parametrize("command", ["train", "nms", "predict"])
def test_file_that_is_not_utf8_is_data_error(capsys, tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xe9t\xe9\n")
    features = tmp_path / "features.jsonl"
    features.write_text('{"features": [0.1]}\n')
    cfg = {"train": {"data": str(bad)}, "nms": {"proposals": str(bad), "mstar_fixed": 1},
           "predict": {"model": str(bad), "features": str(features)}}[command]
    code, lines, err = run_main(capsys, tmp_path, command, cfg)
    assert code == 1 and err == "" and len(lines) == 1, (lines, err)
    out = json.loads(lines[0])
    assert out["code"] == "data" and str(bad) in out["message"], out


def test_config_that_is_not_utf8_is_config_error(capsys, tmp_path):
    from setnet import cli
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"n": "\xe9"}\n')
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["code"] == "config", out


# What train writes on a small counting synth: the first 16 hex digits of the
# sha256 of model.json and of train_log.jsonl, whole.  The configs name their
# data by a path relative to the run directory, so the config hash the files
# embed is fixed.  Recorded before the NB loss stacked its kernel calls: a
# change to the loss or its kernels must keep every bit.
TRAIN_SYNTH = {"task": "counting", "n": 120, "d": 4, "seed": 5}
TRAIN_BASE = {"data": "data/data.jsonl", "hidden": [8], "epochs": 4, "batch_size": 16,
              "learning_rate": 0.01, "alpha_max": 12.0, "beta_max": 4.0, "seed": 3}
TRAIN_GOLDEN = {
    "negbin-tanh": ({}, {"model.json": "5b6daad88c30867c",
                    "train_log.jsonl": "c916737c0014fd31"}),
    "negbin-relu": ({"activation": "relu"}, {"model.json": "03d138a423f09416",
                    "train_log.jsonl": "1d71ddfe25c15baf"}),
    "regression-tanh": ({"loss": "regression"}, {"model.json": "d4f52028ca7aa075",
                        "train_log.jsonl": "b3f267d76b7e2f59"}),
    "negbin-batch-1": ({"batch_size": 1}, {"model.json": "0103769b1056da98",
                       "train_log.jsonl": "9243535559e76216"}),
}


def run_train(capsys, tmp_path, monkeypatch, extra):
    """The stdout JSON line of ``train`` on the counting synth, run in ``tmp_path``."""
    from setnet import cli
    monkeypatch.chdir(tmp_path)
    for command, cfg, out in (("synth", TRAIN_SYNTH, "data"),
                              ("train", {**TRAIN_BASE, **extra}, "model")):
        path = write_config(tmp_path, f"{command}.json", cfg)
        assert cli.main([command, "--config", path, "--out", out]) == 0
        (line,) = capsys.readouterr().out.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("name", list(TRAIN_GOLDEN))
def test_train_writes_the_pinned_bytes(capsys, tmp_path, monkeypatch, name):
    extra, digests = TRAIN_GOLDEN[name]
    files = run_train(capsys, tmp_path, monkeypatch, extra)["files"]
    got = {}
    for path in files.values():
        with open(path, "rb") as fh:
            got[path.rsplit("/", 1)[1]] = hashlib.sha256(fh.read()).hexdigest()[:16]
    assert got == digests


def test_train_reports_its_stage_times_on_stdout_only(capsys, tmp_path, monkeypatch):
    payload = run_train(capsys, tmp_path, monkeypatch, {})
    timings = payload["timings_ms"]
    assert sorted(timings) == ["read", "train", "write"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    samples = TRAIN_BASE["epochs"] * TRAIN_SYNTH["n"]
    assert payload["samples_per_s"] == pytest.approx(samples / (timings["train"] / 1e3),
                                                     rel=0.01, abs=1.0)
    for path in payload["files"].values():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert "timings" not in text and "samples_per_s" not in text


# A jitter so large that a shift leaves the float range: the box check or
# the range check reports it, as before, and numpy does not warn first.
JITTER_OVERFLOW = {
    1e307: "box must have positive extent: BoxDetection(x1=6.391677409754775e+307, "
           "y1=-5.739635045446447e+307, x2=6.391677409754775e+307, "
           "y2=-5.739635045446447e+307, score=0.7711842473414648)",
    4.4e307: "box field x1 must be finite, got inf",
    5e307: "high - low range exceeds valid bounds",
}


@pytest.mark.parametrize("jitter", list(JITTER_OVERFLOW))
def test_synth_jitter_overflow_is_one_numeric_line(capsys, tmp_path, jitter):
    code, lines, err = run_main(capsys, tmp_path, "synth",
                                {"task": "boxes", "n": 5, "seed": 1, "jitter": jitter})
    assert code == 1 and err == ""
    assert lines == [json.dumps({"code": "numeric", "message": JITTER_OVERFLOW[jitter]})]


# What predict and eval-ml write on a small multilabel synth, as the first 16
# hex digits of each file's sha256.  Each run reads what the runs before it
# wrote, by paths relative to the run directory, so the config hash every
# file embeds is fixed.  Recorded before the JSONL reader and the top-k
# sweep were rewritten for speed: those rewrites must keep every byte.
ML_SYNTH = {"task": "multilabel", "n": 150, "d": 4, "C": 8, "seed": 9}
ML_RUNS = [
    ("train", {"data": "data/features.jsonl", "hidden": [8], "epochs": 3, "seed": 3},
     "model"),
    ("predict", {"model": "model/model.json", "features": "data/features.jsonl"}, "pred"),
    ("eval-ml", {"records": "data/records.jsonl"}, "fixed"),
    ("eval-ml", {"records": "data/records.jsonl", "k_values": [3, 0, 3, 8]}, "listed"),
    ("eval-ml", {"records": "data/records.jsonl", "mode": "predicted-k",
                 "pred": "pred/predictions.jsonl"}, "predicted"),
]
ML_GOLDEN = {
    "pred/predictions.jsonl": "96318ed3381cad8c",
    "fixed/curve.csv": "f41433b705325414",
    "fixed/metrics.json": "0c02de8de9f7cbf1",
    "listed/curve.csv": "4142edb6732096e5",
    "listed/metrics.json": "a52e2a980f9c5c7f",
    "predicted/metrics.json": "5dd8847f1644581d",
}


def run_ml_chain(capsys, tmp_path, monkeypatch):
    """The stdout JSON line of each run of ``ML_RUNS`` after the multilabel synth."""
    from setnet import cli
    monkeypatch.chdir(tmp_path)
    lines = []
    for i, (command, cfg, out) in enumerate([("synth", ML_SYNTH, "data"), *ML_RUNS]):
        path = write_config(tmp_path, f"{i}.json", cfg)
        assert cli.main([command, "--config", path, "--out", out]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        lines.append(json.loads(line))
    return lines


def test_predict_and_eval_ml_write_the_pinned_bytes(capsys, tmp_path, monkeypatch):
    run_ml_chain(capsys, tmp_path, monkeypatch)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
           for name in ML_GOLDEN}
    assert got == ML_GOLDEN


# Floats whose repr json spells the same way: subnormals down to 5e-324,
# 1e16 and above (exponent form), every mantissa bit drawn; modes up to 2**63 - 1.
TEMPLATE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-310, 1e16,
                                      1.2345678901234567e16, 1e17, 2.0**63, 1.7976931348623157e308,
                                      0.1, -0.0, 160.0])
                   | st.builds(lambda m, e: math.ldexp(1.0 + m / 2**52, e),
                               st.integers(0, 2**52 - 1), st.integers(-1074, 1023)))
TEMPLATE_MODES = st.integers(0, 2**63 - 1) | st.integers(2**63 - 2**12, 2**63 - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TEMPLATE_FLOATS, TEMPLATE_FLOATS, TEMPLATE_MODES)
@example(5e-324, 1e16, 2**63 - 1)
def test_prediction_template_spells_rows_as_canonical_json(a, b, m):
    from setnet.cli import _prediction_lines
    from setnet.formats import canonical_json
    alpha, beta, mode = np.array([a]), np.array([b]), np.array([m], dtype=np.int64)
    assert list(_prediction_lines(alpha, beta, mode)) == [
        canonical_json({"alpha": a, "beta": b, "mode": m}) + "\n"]
    assert list(_prediction_lines(None, None, mode)) == [canonical_json({"mode": m}) + "\n"]


TEMPLATE_LISTS = st.lists(TEMPLATE_FLOATS, max_size=5)
TEMPLATE_COUNTS = st.lists(TEMPLATE_MODES, max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TEMPLATE_LISTS, TEMPLATE_COUNTS, TEMPLATE_MODES, TEMPLATE_FLOATS)
@example([-0.0, 5e-324, 1.7976931348623157e308], [], 2**63 - 1, -0.0)
@example([], [0, 2**63 - 1], 0, 1.7976931348623157e308)
def test_row_templates_spell_rows_as_canonical_json(floats, counts, m, f):
    # What each JSONL template spells: the canonical JSON of its row object.
    from setnet import cli
    from setnet.formats import canonical_json

    def rows(*objs):
        return [canonical_json(obj) + "\n" for obj in objs]

    assert list(cli._count_lines([floats], [m])) == rows({"features": floats, "count": m})
    assert list(cli._record_lines([floats], [counts])) == rows({"scores": floats, "truth": counts})
    assert list(cli._image_count_lines([m, 0])) == rows({"image_id": 0, "count": m},
                                                        {"image_id": 1, "count": 0})
    assert list(cli._loss_lines([f, f])) == rows({"epoch": 0, "loss": f}, {"epoch": 1, "loss": f})
    assert list(cli._sample_lines([floats, counts])) == rows({"set": floats}, {"set": counts})


@pytest.mark.parametrize("kind", ["negbin", "regression"])
def test_predict_on_10k_rows_runs_no_collector_pass(capsys, tmp_path, kind):
    # Row strings are not tracked by the collector; 10k row dicts started 14 passes.
    from setnet import cli
    from setnet.cardnet import init_model, save_model
    synth = write_config(tmp_path, "synth.json",
                         {"task": "multilabel", "n": 10000, "d": 8, "C": 16, "seed": 7})
    assert cli.main(["synth", "--config", synth, "--out", str(tmp_path / "ml")]) == 0
    model = str(tmp_path / "model.json")
    save_model(init_model([8, 16, 2 if kind == "negbin" else 1], seed=1, kind=kind), model)
    argv = ["predict", "--config", write_config(tmp_path, "predict.json", {
        "model": model, "features": str(tmp_path / "ml" / "features.jsonl")}),
        "--out", str(tmp_path / "pred")]
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert cli.main(argv) == 0
    finally:
        gc.callbacks.remove(count)
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["n"] == 10000
    assert passes == []


def test_predict_and_eval_ml_report_their_stage_times_on_stdout_only(capsys, tmp_path,
                                                                     monkeypatch):
    payloads = run_ml_chain(capsys, tmp_path, monkeypatch)[2:]
    for payload, stage, rate in [(payloads[0], "predict", "rows_per_s"),
                                 *((p, "eval", "records_per_s") for p in payloads[1:])]:
        timings = payload["timings_ms"]
        assert sorted(timings) == sorted(["read", stage, "write"])
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert payload[rate] == pytest.approx(ML_SYNTH["n"] / (timings[stage] / 1e3),
                                              rel=0.01, abs=1.0)
        for path in payload["files"].values():
            text = (tmp_path / path).read_text(encoding="utf-8")
            assert "timings" not in text and rate not in text


# What nms and eval-det write on a crowded boxes synth (the det-crowd scene
# settings at a small n), as the first 16 hex digits of each file's sha256.
# nms runs three ways: m* from the true counts, m* = 2 (met early) and m*
# above every proposal count (the whole sweep runs on every image).  Paths
# are relative to the run directory, so the config hash every file embeds is
# fixed.  Recorded before the NMS sweep built its overlap rows in blocks and
# skipped thresholds: that rewrite must keep every byte.
DET_SYNTH = {"task": "boxes", "n": 24, "d": 8, "cell_count": 10, "box_size": 12.0,
             "duplicates": 8, "fp_rate": 2.0, "seed": 23,
             "alpha_map": {"weights": [150.0, 0.8], "bias": -64.0, "lo": 0.11, "hi": 60.0}}
DET_RUNS = [
    ("nms", {"proposals": "data/proposals.txt", "mstar_file": "data/counts.jsonl"}, "counts"),
    ("nms", {"proposals": "data/proposals.txt", "mstar_fixed": 2}, "twos"),
    ("nms", {"proposals": "data/proposals.txt", "mstar_fixed": 10_000}, "unreachable"),
    ("eval-det", {"dets": "counts/kept.txt", "gts": "data/gt.txt"}, "eval"),
]
DET_GOLDEN = {
    "counts/kept.txt": "d061cc5f8d71806f",
    "twos/kept.txt": "0d03d79e33d070df",
    "unreachable/kept.txt": "4f3e551230fe1acd",
    "eval/metrics.json": "d8a8a4f9db037e6c",
    "eval/curve.csv": "041472008488b9a3",
}


def run_det_chain(capsys, tmp_path, monkeypatch):
    """The stdout JSON line of each run of ``DET_RUNS`` after the boxes synth."""
    from setnet import cli
    monkeypatch.chdir(tmp_path)
    lines = []
    for i, (command, cfg, out) in enumerate([("synth", DET_SYNTH, "data"), *DET_RUNS]):
        path = write_config(tmp_path, f"{i}.json", cfg)
        assert cli.main([command, "--config", path, "--out", out]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        lines.append(json.loads(line))
    return lines


def test_nms_and_eval_det_write_the_pinned_bytes(capsys, tmp_path, monkeypatch):
    run_det_chain(capsys, tmp_path, monkeypatch)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
           for name in ("counts/kept.txt", "twos/kept.txt", "unreachable/kept.txt",
                        "eval/metrics.json", "eval/curve.csv")}
    assert got == DET_GOLDEN


def test_nms_and_eval_det_report_their_stage_times_on_stdout_only(capsys, tmp_path,
                                                                  monkeypatch):
    payloads = run_det_chain(capsys, tmp_path, monkeypatch)[1:]
    for payload, stage in [*((p, "nms") for p in payloads[:3]), (payloads[3], "eval")]:
        timings = payload["timings_ms"]
        assert sorted(timings) == sorted(["read", stage, "write"])
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        # Without an n_images key, eval-det counts the images in its files.
        assert payload["images_per_s"] == pytest.approx(
            payload["n_images"] / (timings[stage] / 1e3), rel=0.01, abs=1.0)
        for path in payload["files"].values():
            text = (tmp_path / path).read_text(encoding="utf-8")
            assert "timings" not in text and "images_per_s" not in text
    # eval-det's n_matched is its true positives, on stdout only.
    dets = read_boxes(str(tmp_path / "counts" / "kept.txt"), with_score=True)
    gts = read_boxes(str(tmp_path / "data" / "gt.txt"), with_score=False)
    empty = np.zeros((0, 5))
    assert payloads[3]["n_matched"] == sum(
        match_tables(dets.get(i, empty), gts.get(i, empty), 0.5).tp for i in set(dets) | set(gts))
    assert payloads[3]["n_matched"] > 0
    assert "n_matched" not in (tmp_path / "eval" / "metrics.json").read_text()
    # sweep_steps counts each image once, by the threshold index it stopped at:
    # m* = 2 is met at t0 on every image with two boxes apart, and an
    # unreachable m* ends no later than the last threshold, 0.95 at 0.4 + 55 * 0.01.
    for payload in payloads[:3]:
        steps = {int(k): v for k, v in payload["sweep_steps"].items()}
        assert sum(steps.values()) == payload["n_images"] == DET_SYNTH["n"]
        assert max(steps) <= 55
        assert "sweep_steps" not in (tmp_path / payload["files"]["kept"]).read_text()


def test_nms_reports_its_sweep_work_on_stdout_only(capsys, tmp_path, monkeypatch):
    # sweep_work counts the walks, threshold passes, overlap rows built and IoU
    # values of all sweeps.  The counts repeat from run to run.
    first, again = (run_det_chain(capsys, tmp_path, monkeypatch)[1:4] for _ in range(2))
    assert [p["sweep_work"] for p in first] == [p["sweep_work"] for p in again]
    for payload in first:
        work = payload["sweep_work"]
        assert sorted(work) == ["ious", "passes", "rows", "walks"]
        assert all(type(v) is int for v in work.values())
        assert 0 < work["walks"] <= work["passes"]  # an image of m* = 0 runs no walk
        assert 0 < work["rows"] <= work["ious"]
        assert "sweep_work" not in (tmp_path / payload["files"]["kept"]).read_text()
    # m* = 10,000 exceeds every image's boxes: each image runs only its t_max pass.
    unreachable = first[2]["sweep_work"]
    assert unreachable["walks"] == unreachable["passes"] == first[2]["n_images"]


def test_nms_counts_images_that_only_its_mstar_file_names(capsys, tmp_path):
    # Images 4 and 5 are in the m* file but have no proposals: they keep no
    # boxes, and image 4, whose m* is 1, is short of it, so its sweep ends at
    # the last threshold, 0.95 at 0.4 + 55 * 0.01.
    proposals = tmp_path / "proposals.txt"
    proposals.write_text("1 0 0 5 5 0.9\n3 0 0 4 4 0.6\n")
    mstar = tmp_path / "mstar.jsonl"
    mstar.write_text("".join(json.dumps({"image_id": i, "count": c}) + "\n"
                             for i, c in ((1, 1), (3, 1), (4, 1), (5, 0))))
    code, lines, err = run_main(capsys, tmp_path, "nms", {
        "proposals": str(proposals), "mstar_file": str(mstar)})
    assert code == 0 and err == ""
    payload = json.loads(lines[0])
    assert (payload["n_images"], payload["n_kept"], payload["n_short"]) == (4, 2, 1)
    assert payload["sweep_steps"] == {"0": 3, "55": 1}
    kept = (tmp_path / "out" / "kept.txt").read_text().splitlines()[1:]
    assert kept == ["1 0.0 0.0 5.0 5.0 0.9", "3 0.0 0.0 4.0 4.0 0.6"]


def test_nms_on_a_proposals_file_with_only_its_header(capsys, tmp_path, recwarn):
    # No proposals: every image of the m* file keeps no boxes, and the
    # parse of an empty file warns nothing (numpy's "input contained no
    # data" would reach stderr).
    proposals = tmp_path / "proposals.txt"
    proposals.write_text('# {"schema_version": 1}\n')
    mstar = tmp_path / "mstar.jsonl"
    mstar.write_text("".join(json.dumps({"image_id": i, "count": 1}) + "\n" for i in (2, 5)))
    code, lines, err = run_main(capsys, tmp_path, "nms", {
        "proposals": str(proposals), "mstar_file": str(mstar)})
    assert code == 0 and err == "" and len(lines) == 1, (lines, err)
    assert not recwarn.list, [str(w.message) for w in recwarn.list]
    payload = json.loads(lines[0])
    assert (payload["n_images"], payload["n_kept"], payload["n_short"]) == (2, 0, 2)


def test_integer_past_the_digit_limit_is_a_data_error_naming_its_line(capsys, tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text('{"scores": [0.5], "truth": [0]}\n'
                       '{"scores": [0.5], "truth": [' + "1" * 5000 + "]}\n")
    code, lines, err = run_main(capsys, tmp_path, "eval-ml", {"records": str(records)})
    assert code == 1 and err == ""
    assert lines == [json.dumps({
        "code": "data",
        "message": f"{records}:2: invalid JSON: Exceeds the limit (4300 digits) for "
                   "integer string conversion: value has 5000 digits; use "
                   "sys.set_int_max_str_digits() to increase the limit"})]


# One run of every command, each file it writes in its own out directory:
# (command, config, out).  Paths are relative to the run directory.
EVERY_COMMAND = [
    ("synth", {"task": "counting", "n": 40, "d": 4, "seed": 1}, "counting"),
    ("synth", {"task": "multilabel", "n": 40, "d": 4, "C": 5, "seed": 2}, "multilabel"),
    ("synth", {"task": "boxes", "n": 4, "seed": 3}, "boxes"),
    ("train", {"data": "counting/data.jsonl", "hidden": [4], "epochs": 1}, "model"),
    ("predict", {"model": "model/model.json", "features": "counting/data.jsonl"}, "pred"),
    ("eval-ml", {"records": "multilabel/records.jsonl"}, "fixed"),
    ("eval-ml", {"records": "multilabel/records.jsonl", "mode": "predicted-k",
                 "pred": "pred/predictions.jsonl"}, "predicted"),
    ("nms", {"proposals": "boxes/proposals.txt", "mstar_file": "boxes/counts.jsonl"}, "kept"),
    ("eval-det", {"dets": "kept/kept.txt", "gts": "boxes/gt.txt"}, "eval"),
    ("sample", {"n": 10}, "samples"),
    ("gradcheck", {}, "gradcheck"),
]


def test_every_file_is_written_by_write_lines(capsys, tmp_path, monkeypatch):
    from setnet import cli, formats
    monkeypatch.chdir(tmp_path)
    written, write_lines = [], formats.write_lines

    def counted(path, *args):
        written.append(path)
        write_lines(path, *args)

    monkeypatch.setattr(formats, "write_lines", counted)
    for i, (command, cfg, out) in enumerate(EVERY_COMMAND):
        path = write_config(tmp_path, f"{i}.json", cfg)
        written.clear()
        assert cli.main([command, "--config", path, "--out", out]) == 0, command
        files = json.loads(capsys.readouterr().out)["files"]
        assert sorted(written) == sorted(files.values()), command


# Each EVERY_COMMAND run's result-line keys past the five every line has, and
# its files keys, by out directory.
EVERY_LINE = ["command", "config", "config_hash", "files", "seed"]
RESULT_KEYS = {
    "counting": (["n", "n_clamped", "timings_ms"], ["data"]),
    "multilabel": (["n", "n_clamped", "timings_ms"], ["features", "records"]),
    "boxes": (["n", "n_clamped", "timings_ms"], ["counts", "gt", "proposals"]),
    "model": (["final_loss", "n_samples", "samples_per_s", "timings_ms"], ["model", "train_log"]),
    "pred": (["n", "rows_per_s", "timings_ms"], ["predictions"]),
    "fixed": (["best", "best_k", "mode", "records_per_s", "sweep", "timings_ms"],
              ["curve", "metrics"]),
    "predicted": (["metrics", "mode", "records_per_s", "timings_ms"], ["metrics"]),
    "kept": (["images_per_s", "n_images", "n_kept", "n_short", "sweep_steps", "sweep_work",
              "timings_ms"], ["kept"]),
    "eval": (["best_f1", "f1", "images_per_s", "mr", "n_images", "n_matched", "timings_ms"],
             ["curve", "metrics"]),
    "samples": (["mean_cardinality", "n", "timings_ms"], ["samples"]),
    "gradcheck": (["max_rel_error", "timings_ms"], ["report"]),
}


# The stages of the synth, sample and gradcheck runs, which no other test times.
SETUP_STAGES = {"counting": ["draw", "write"], "multilabel": ["draw", "write"],
                "boxes": ["draw", "write"], "samples": ["draw", "write"],
                "gradcheck": ["check", "write"]}


def test_every_command_prints_its_pinned_result_keys(capsys, tmp_path, monkeypatch):
    from setnet import cli
    monkeypatch.chdir(tmp_path)
    for i, (command, cfg, out) in enumerate(EVERY_COMMAND):
        path = write_config(tmp_path, f"{i}.json", cfg)
        assert cli.main([command, "--config", path, "--out", out]) == 0, command
        payload = json.loads(capsys.readouterr().out)
        keys, files = RESULT_KEYS[out]
        assert sorted(payload) == sorted(EVERY_LINE + keys), out
        assert sorted(payload["files"]) == files, out
        if out in SETUP_STAGES:  # stage times, on stdout only
            assert sorted(payload["timings_ms"]) == SETUP_STAGES[out], out
            assert all(isinstance(v, float) and v >= 0.0 for v in payload["timings_ms"].values())
            for name in payload["files"].values():
                assert "timings" not in (tmp_path / name).read_text(encoding="utf-8"), name

"""Command-line surface tying the library into reproducible experiments.

Every subcommand takes exactly three flags: --config (a flat JSON file of
command-specific keys), --seed (overrides the config seed) and --out (the
artifact directory).  Runs print one machine-readable JSON line to stdout
that echoes the resolved config, its hash and the seed; all artifacts
embed the same triple.  Each config value is type-checked against the
command's schema before the command runs; a wrongly typed or unknown key is
a "config" error.  Failures print {"code", "message"} and exit 1,
with code "config", "data" or "numeric".  The SETNET_LOG environment
variable (error|info|debug) controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import types
import typing

import numpy as np

from . import cardnet, detect, formats, mlmetrics, setinfer, synth
from .cardloss import HeadWeights
from .errors import ConfigError, DataError, NumericError, SetnetError
from .numerics import NegBinParams, nb_pmf_truncated

log = logging.getLogger(__name__)

_REQUIRED = object()


def _fields(cls) -> dict[str, tuple]:
    """(type, default) of every field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)}


def _build(cls, cfg: dict, **given):
    """Dataclass ``cls`` from the config keys named after its fields.

    A value its ``__post_init__`` rejects is out of range for the config,
    so it is a config error, not a numeric one.
    """
    try:
        return cls(**({f.name: cfg[f.name] for f in dataclasses.fields(cls)} | given))
    except (NumericError, ArithmeticError) as e:
        raise ConfigError(f"invalid {cls.__name__} config: {e}") from e


# Each command's known keys as (type, default); unknown keys are rejected.
# A type is int, float, str, dict, list[int], list[float] or a tuple of the
# allowed strings; null is a valid value only where the default is None.
_SEED = {"seed": (int, 0)}
SCHEMAS: dict[str, dict[str, tuple]] = {
    "synth": {
        "task": (("counting", "multilabel", "boxes"), _REQUIRED),
        **_fields(synth.SynthConfig),
        # null (or {}) selects the task's default map.
        "alpha_map": (dict, None),
        "beta_map": (dict, None),
    },
    "train": {
        "data": (str, _REQUIRED),
        "loss": (cardnet.KINDS, "negbin"),
        "hidden": (list[int], [16]),
        "activation": (cardnet.ACTIVATIONS, "tanh"),
        **_fields(HeadWeights),
        **_fields(cardnet.TrainConfig),
    },
    "predict": {
        "model": (str, _REQUIRED),
        "features": (str, _REQUIRED),
        **_SEED,
    },
    "eval-ml": {
        "records": (str, _REQUIRED),
        "mode": (("fixed-k", "predicted-k"), "fixed-k"),
        "pred": (str, None),
        "k_values": (list[int], None),
        **_SEED,
    },
    "eval-det": {
        "dets": (str, _REQUIRED),
        "gts": (str, _REQUIRED),
        "iou_thresh": (float, 0.5),
        "n_images": (int, None),
        **_SEED,
    },
    "nms": {
        "proposals": (str, _REQUIRED),
        "mstar_fixed": (int, None),
        "mstar_file": (str, None),
        "mstar_model": (str, None),
        "mstar_features": (str, None),
        **_fields(detect.NMSConfig),
        **_SEED,
    },
    "sample": {
        "card": (("negbin", "pmf"), "negbin"),
        "a": (float, 5.0),
        "b": (float, 0.5),
        "pmf": (list[float], None),
        "element": (("categorical", "uniform"), "categorical"),
        "probs": (list[float], [0.5, 0.3, 0.2]),
        "lo": (float, 0.0),
        "hi": (float, 1.0),
        "n": (int, _REQUIRED),
        **_SEED,
    },
    "gradcheck": {
        "d": (int, 4),
        "hidden": (list[int], [8]),
        "batch": (int, 8),
        "h": (float, 1e-5),
        "loss": (cardnet.KINDS, "negbin"),
        **_SEED,
    },
}


def _setup_logging() -> None:
    level = os.environ.get("SETNET_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        level = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _cast(kind, value):
    """``value`` as schema type ``kind``; TypeError if it is not one.

    An int takes an integer or an integral float, a float any number; bools
    are neither.
    """
    if isinstance(kind, types.GenericAlias):
        if not isinstance(value, list):
            raise TypeError(value)
        return [_cast(kind.__args__[0], v) for v in value]
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif kind is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool):
        raise TypeError(value)
    return kind(value) if kind in (int, float) else value


def _resolve_config(command: str, config_path: str | None,
                    seed: int | None) -> tuple[dict, dict]:
    """The config as given, defaults filled in (echoed and hashed), and the
    same config with each value cast to its schema type (what commands use)."""
    schema = SCHEMAS[command]
    config = {k: d for k, (_, d) in schema.items() if d is not _REQUIRED}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {config_path}: {e}") from e
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"config {config_path} is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {unknown}")
        config.update(loaded)
    if seed is not None:
        config["seed"] = seed
    missing = sorted(k for k, (_, d) in schema.items()
                     if d is _REQUIRED and k not in config)
    if missing:
        raise ConfigError(f"missing required config keys for {command}: {missing}")
    typed = {}
    for key, value in config.items():
        kind, default = schema[key]
        try:
            typed[key] = (None if value is None and default is None
                          else _cast(kind, value))
        except (TypeError, OverflowError):
            what = (f"one of {list(kind)}" if isinstance(kind, tuple)
                    else str(kind) if isinstance(kind, types.GenericAlias)
                    else kind.__name__)
            null = " or null" if default is None else ""
            raise ConfigError(f"{command} config key {key!r} must be "
                              f"{what}{null}, got {value!r}") from None
    return config, typed


def _check(cfg: dict, key: str, ok: bool, want: str) -> None:
    """ConfigError unless ``ok``, the range check of config value ``key``."""
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {cfg[key]!r}")


def _outpath(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _synth_config(cfg: dict) -> synth.SynthConfig:
    defaults = (
        synth.multilabel_default_maps()
        if cfg["task"] == "multilabel"
        else synth.counting_default_maps()
    )
    try:
        alpha_map, beta_map = (
            synth.ParamMap.from_dict(doc) if doc else default
            for doc, default in zip((cfg["alpha_map"], cfg["beta_map"]), defaults)
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(
            f"alpha_map/beta_map need weights, bias, lo and hi: {e!r}") from e
    return _build(synth.SynthConfig, cfg, alpha_map=alpha_map, beta_map=beta_map)


def cmd_synth(cfg: dict, header: dict, out_dir: str) -> dict:
    scfg = _synth_config(cfg)
    task = cfg["task"]
    files: dict[str, str] = {}
    if task == "counting":
        samples = synth.gen_counting(scfg)
        path = _outpath(out_dir, "data.jsonl")
        formats.write_jsonl(path, header, (
            {"features": list(s.features), "count": s.count} for s in samples
        ))
        files["data"] = path
        log.info("wrote %d counting samples to %s", len(samples), path)
    elif task == "multilabel":
        samples = synth.gen_multilabel(scfg)
        rec_path = _outpath(out_dir, "records.jsonl")
        formats.write_jsonl(rec_path, header, (
            {"scores": list(s.record.scores), "truth": list(s.record.truth.labels)}
            for s in samples
        ))
        feat_path = _outpath(out_dir, "features.jsonl")
        formats.write_jsonl(feat_path, header, (
            {"features": list(s.features), "count": s.count} for s in samples
        ))
        files["records"] = rec_path
        files["features"] = feat_path
    else:
        images = synth.gen_boxes(scfg)
        prop_path = _outpath(out_dir, "proposals.txt")
        formats.write_boxes(prop_path, header, (
            (im.image_id, detect.box_table(im.proposals)) for im in images
        ), with_score=True)
        gt_path = _outpath(out_dir, "gt.txt")
        formats.write_boxes(gt_path, header, (
            (im.image_id, detect.box_table(im.ground_truth)) for im in images
        ), with_score=False)
        counts_path = _outpath(out_dir, "counts.jsonl")
        formats.write_jsonl(counts_path, header, (
            {"image_id": im.image_id, "count": im.count} for im in images
        ))
        files = {"proposals": prop_path, "gt": gt_path, "counts": counts_path}
    return {"files": files, "n": cfg["n"]}


def cmd_train(cfg: dict, header: dict, out_dir: str) -> dict:
    _check(cfg, "hidden", min(cfg["hidden"], default=1) >= 1, "widths >= 1")
    head = _build(HeadWeights, cfg)
    tcfg = _build(cardnet.TrainConfig, cfg)
    X, counts = formats.read_counting_records(cfg["data"])
    if not len(counts):
        raise DataError(f"no training records in {cfg['data']}")
    kind = cfg["loss"]
    dims = [X.shape[1], *cfg["hidden"], 2 if kind == "negbin" else 1]
    model = cardnet.init_model(dims, activation=cfg["activation"], head=head,
                               seed=cfg["seed"], kind=kind)
    losses: list[dict] = []
    trained = cardnet.train(model, (X, counts), tcfg,
                            epoch_callback=lambda e, l: losses.append(
                                {"epoch": e, "loss": l}))
    model_path = _outpath(out_dir, "model.json")
    cardnet.save_model(trained, model_path,
                       meta={"config_hash": header["config_hash"]})
    log_path = _outpath(out_dir, "train_log.jsonl")
    formats.write_jsonl(log_path, header, losses)
    return {
        "files": {"model": model_path, "train_log": log_path},
        "final_loss": losses[-1]["loss"],
        "n_samples": len(counts),
    }


def cmd_predict(cfg: dict, header: dict, out_dir: str) -> dict:
    model = cardnet.load_model(cfg["model"])
    X, _ = formats.read_counting_records(cfg["features"], with_count=False,
                                         width=model.dims[0])
    alpha, beta, mode = cardnet.predict_batch(model, X)
    if model.kind == "negbin":
        rows = [{"alpha": a, "beta": b, "mode": m}
                for a, b, m in zip(alpha.tolist(), beta.tolist(), mode.tolist())]
    else:
        rows = [{"mode": m} for m in mode.tolist()]
    path = _outpath(out_dir, "predictions.jsonl")
    formats.write_jsonl(path, header, rows)
    return {"files": {"predictions": path}, "n": len(rows)}


def _write_json(out_dir: str, name: str, doc: dict) -> str:
    """Write ``doc`` as one canonical JSON line to ``name`` in ``out_dir``."""
    path = _outpath(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(formats.canonical_json(doc) + "\n")
    return path


def _write_curve_csv(path: str, header: dict, columns: list[str],
                     rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# ")
        fh.write(formats.canonical_json(header))
        fh.write("\n")
        fh.write(",".join(columns))
        fh.write("\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
            fh.write("\n")


def cmd_eval_ml(cfg: dict, header: dict, out_dir: str) -> dict:
    mode = cfg["mode"]
    _check(cfg, "k_values", mode != "fixed-k" or cfg["k_values"] != [], "null or non-empty")
    if mode == "predicted-k" and not cfg["pred"]:
        raise ConfigError("predicted-k evaluation needs a 'pred' file")
    records = formats.read_multilabel_records(cfg["records"])
    if not records:
        raise DataError(f"no records in {cfg['records']}")
    n_classes = len(records[0].scores)
    if mode == "fixed-k":
        k_values = (list(range(0, n_classes + 1)) if cfg["k_values"] is None
                    else cfg["k_values"])
        bad = [k for k in k_values if not 0 <= k <= n_classes]
        if bad:
            raise ConfigError(f"k_values must lie in [0, C={n_classes}], got {bad[0]!r}")
        sweep = mlmetrics.topk_sweep(records, k_values)
        curve_path = _outpath(out_dir, "curve.csv")
        _write_curve_csv(
            curve_path, header,
            ["k", "O-P", "O-R", "C-P", "C-R", "O-F1", "C-F1"],
            [[k, s.o_precision, s.o_recall, s.c_precision, s.c_recall,
              s.o_f1, s.c_f1] for k, s in sweep],
        )
        best_k, best = max(sweep, key=lambda ks: ks[1].o_f1)
        result = {
            "mode": mode,
            "sweep": [{"k": k, **s.as_dict()} for k, s in sweep],
            "best_k": best_k,
            "best": best.as_dict(),
        }
        files = {"curve": curve_path}
    else:
        m_stars = [m for (m,) in formats.read_records(cfg["pred"], "mode")]
        if len(m_stars) != len(records):
            raise DataError(f"{len(m_stars)} predictions for {len(records)} records")
        summary = mlmetrics.predicted_k_eval(records, m_stars)
        result = {"mode": mode, "metrics": summary.as_dict()}
        files = {}
    files["metrics"] = _write_json(out_dir, "metrics.json", {**header, **result})
    return {"files": files, **result}


def cmd_eval_det(cfg: dict, header: dict, out_dir: str) -> dict:
    _check(cfg, "iou_thresh", 0.0 < cfg["iou_thresh"] < 1.0, "in (0, 1)")
    _check(cfg, "n_images", cfg["n_images"] is None or cfg["n_images"] >= 1, "null or >= 1")
    dets = formats.read_boxes(cfg["dets"], with_score=True)
    gts = formats.read_boxes(cfg["gts"], with_score=False)
    image_ids = sorted(set(dets) | set(gts))
    if not image_ids:
        raise DataError("no images found in detection/ground-truth files")
    _check(cfg, "n_images", cfg["n_images"] is None or cfg["n_images"] >= len(image_ids),
           f"null or at least the {len(image_ids)} images in the dets and gts files")
    empty = np.zeros((0, 5))
    matches = [
        detect.match_tables(dets.get(i, empty), gts.get(i, empty), cfg["iou_thresh"])
        for i in image_ids
    ]
    n_images = len(image_ids) if cfg["n_images"] is None else cfg["n_images"]
    f1 = detect.detection_f1(matches)
    best_f1 = detect.best_f1_over_thresholds(matches)
    mr = detect.log_avg_miss_rate(matches, n_images)
    miss, fppi = detect.miss_rate_curve(matches, n_images)
    curve_path = _outpath(out_dir, "curve.csv")
    _write_curve_csv(curve_path, header, ["fppi", "miss_rate"],
                     [[float(f), float(m)] for f, m in zip(fppi, miss)])
    result = {"f1": f1, "best_f1": best_f1, "mr": mr, "n_images": n_images}
    metrics_path = _write_json(out_dir, "metrics.json", {**header, **result})
    return {"files": {"curve": curve_path, "metrics": metrics_path}, **result}


def _mstar_lookup(cfg: dict, image_ids: list[int]) -> dict[int, int]:
    sources = [k for k in ("mstar_fixed", "mstar_file", "mstar_model")
               if cfg[k] is not None]
    if len(sources) != 1:
        raise ConfigError(
            "exactly one of mstar_fixed / mstar_file / mstar_model is required"
        )
    source = sources[0]
    if source == "mstar_fixed":
        _check(cfg, "mstar_fixed", cfg["mstar_fixed"] >= 0, ">= 0")
        return {i: cfg["mstar_fixed"] for i in image_ids}
    if source == "mstar_file":
        table = dict(formats.read_records(cfg["mstar_file"], "image_id", "count"))
        missing = [i for i in image_ids if i not in table]
        if missing:
            raise DataError(f"{cfg['mstar_file']} lacks image ids {missing[:5]}")
        return table
    if not cfg["mstar_features"]:
        raise ConfigError("mstar_model also needs mstar_features")
    model = cardnet.load_model(cfg["mstar_model"])
    X, _ = formats.read_counting_records(cfg["mstar_features"], with_count=False,
                                         width=model.dims[0])
    if len(X) != len(image_ids):
        raise DataError(
            f"{len(X)} feature rows for {len(image_ids)} images"
        )
    return dict(zip(image_ids, cardnet.predict_batch(model, X)[2].tolist()))


def cmd_nms(cfg: dict, header: dict, out_dir: str) -> dict:
    nms_cfg = _build(detect.NMSConfig, cfg)
    proposals = formats.read_boxes(cfg["proposals"], with_score=True)
    image_ids = sorted(proposals)
    mstar = _mstar_lookup(cfg, image_ids)
    kept = {i: proposals[i][detect.adaptive_nms_rows(proposals[i], mstar[i], nms_cfg)]
            for i in image_ids}
    path = _outpath(out_dir, "kept.txt")
    formats.write_boxes(path, header, kept.items(), with_score=True)
    # n_short: the images where no threshold of the sweep kept m* boxes.
    return {"files": {"kept": path}, "n_images": len(image_ids),
            "n_kept": sum(map(len, kept.values())),
            "n_short": sum(len(kept[i]) < mstar[i] for i in image_ids)}


def _normalised(values: list[float], key: str) -> np.ndarray:
    """``values`` divided by their sum; ConfigError unless every entry is
    >= 0 and the sum is positive and finite (a nan or inf entry makes it not)."""
    w = np.asarray(values, dtype=float)
    total = w.sum()
    if not (0.0 < total < np.inf and (w >= 0.0).all()):
        raise ConfigError(f"{key} entries must be finite and >= 0 with a positive "
                          f"finite sum, got {values!r}")
    return w / total


def cmd_sample(cfg: dict, header: dict, out_dir: str) -> dict:
    _check(cfg, "n", cfg["n"] >= 0, ">= 0")
    if cfg["card"] == "negbin":
        pmf = nb_pmf_truncated(_build(NegBinParams, cfg))
    elif not cfg["pmf"]:
        raise ConfigError("card=pmf needs an explicit 'pmf' list")
    else:
        pmf = cfg["pmf"]
    card = setinfer.CardinalityPMF(pmf=tuple(_normalised(pmf, "pmf")))
    if cfg["element"] == "categorical":
        probs = _normalised(cfg["probs"], "probs")

        def sampler(rng: np.random.Generator):
            return int(rng.choice(len(probs), p=probs))
    else:
        lo, hi = cfg["lo"], cfg["hi"]
        if not hi > lo:
            raise ConfigError("uniform element law needs hi > lo")

        def sampler(rng: np.random.Generator):
            return float(rng.uniform(lo, hi))
    rng = np.random.default_rng(cfg["seed"])
    rows = [{"set": setinfer.sample_rfs_with(card, sampler, rng)}
            for _ in range(cfg["n"])]
    path = _outpath(out_dir, "samples.jsonl")
    formats.write_jsonl(path, header, rows)
    sizes = [len(r["set"]) for r in rows]
    return {"files": {"samples": path}, "n": len(rows),
            "mean_cardinality": float(np.mean(sizes)) if sizes else 0.0}


def cmd_gradcheck(cfg: dict, header: dict, out_dir: str) -> dict:
    for key in ("d", "batch"):
        _check(cfg, key, cfg[key] >= 1, ">= 1")
    _check(cfg, "hidden", min(cfg["hidden"], default=1) >= 1, "widths >= 1")
    _check(cfg, "h", 0.0 < cfg["h"] < np.inf, "finite and > 0")
    rng = np.random.default_rng(cfg["seed"])
    d = cfg["d"]
    kind = cfg["loss"]
    dims = [d, *cfg["hidden"], 2 if kind == "negbin" else 1]
    model = cardnet.init_model(dims, seed=cfg["seed"], kind=kind)
    batch = [
        cardnet.TrainingSample(
            features=tuple(rng.uniform(-1.0, 1.0, size=d)),
            count=int(rng.poisson(4.0)),
        )
        for _ in range(cfg["batch"])
    ]
    err = cardnet.gradient_check(model, batch, h=cfg["h"])
    path = _write_json(out_dir, "gradcheck.json", {**header, "max_rel_error": err})
    return {"files": {"report": path}, "max_rel_error": err}


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval-ml": cmd_eval_ml,
    "eval-det": cmd_eval_det,
    "nms": cmd_nms,
    "sample": cmd_sample,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setnet",
        description="Set prediction toolkit: cardinality model, inference, "
                    "NMS and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--out", default=".", help="artifact directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code not in (0, None):
            print(json.dumps({"code": "config",
                              "message": "invalid command line"}))
            return 1
        return 0
    try:
        given, config = _resolve_config(args.command, args.config, args.seed)
        header = formats.make_header(given, config["seed"])
        result = COMMANDS[args.command](config, header, args.out)
        payload = {
            "command": args.command,
            "seed": config["seed"],
            "config_hash": header["config_hash"],
            "config": given,
            **result,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    except ConfigError as e:
        print(json.dumps({"code": "config", "message": str(e)}))
        return 1
    except (DataError, OSError) as e:
        print(json.dumps({"code": "data", "message": str(e)}))
        return 1
    except (SetnetError, ValueError, ArithmeticError) as e:
        print(json.dumps({"code": "numeric", "message": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

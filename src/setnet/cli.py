"""Command-line surface tying the library into reproducible experiments.

Every subcommand takes exactly three flags: --config (a JSON object of
command-specific keys), --seed (overrides the config seed) and --out (the
artifact directory).  Runs print one machine-readable JSON line to stdout
that echoes the resolved config, its hash and the seed; all artifacts
embed the same triple.  Each config value is type-checked against the
command's schema before the command runs, the fields of synth's alpha_map
and beta_map included; a wrongly typed or unknown key is a "config" error.
Each command runs with one ``cli._Run``, the one place that records the
files it writes and its stage wall times; ``main`` adds them to the result
line as ``files``, ``timings_ms`` and a rate, which stay out of the
artifacts.  Failures print {"code", "message"} and exit 1, with code
"config", "data" or "numeric".
The SETNET_LOG environment variable (error|info|debug) controls stderr
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import reprlib
import sys
import time
import types
import typing

import numpy as np

from . import cardnet, detect, formats, mlmetrics, setinfer, synth
from .cardloss import HeadWeights
from .errors import ConfigError, DataError, NumericError, SetnetError
from .numerics import NegBinParams, _check_seed, nb_pmf_truncated

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
# A type is int, float, str, a tuple of the allowed strings, list[int],
# list[float] or a dataclass (an object of its fields, each cast by its own
# type); null is a valid value only where the default is None.
_SEED = {"seed": (int, 0)}
SCHEMAS: dict[str, dict[str, tuple]] = {
    "synth": {
        "task": (("counting", "multilabel", "boxes"), _REQUIRED),
        **_fields(synth.SynthConfig),
        # null selects the task's default map.
        "alpha_map": (synth.ParamMap, None),
        "beta_map": (synth.ParamMap, None),
    },
    "train": {
        "data": (str, _REQUIRED),
        "loss": (tuple(cardnet.OUTPUT_WIDTH), "negbin"),
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
        "loss": (tuple(cardnet.OUTPUT_WIDTH), "negbin"),
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
    are neither.  A dataclass takes an object of exactly its fields, each cast
    by its own type (else ValueError); ``__post_init__`` may raise NumericError.
    """
    if dataclasses.is_dataclass(kind):
        fields = _fields(kind)
        if not isinstance(value, dict):
            raise TypeError(value)
        if value.keys() != fields.keys():
            raise ValueError(f"unknown fields {reprlib.repr(sorted(value.keys() - fields.keys()))}"
                             f", missing fields {[f for f in fields if f not in value]}")
        return kind(**{k: _cast(t, value[k]) for k, (t, _) in fields.items()})
    if isinstance(kind, types.GenericAlias):  # list[x] or tuple[x, ...]
        if not isinstance(value, list):
            raise TypeError(value)
        return kind.__origin__(_cast(kind.__args__[0], v) for v in value)
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
            raise ConfigError(f"unknown config keys for {command}: {reprlib.repr(unknown)}")
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
                    else f"an object of {list(_fields(kind))}" if dataclasses.is_dataclass(kind)
                    else kind.__name__)
            null = " or null" if default is None else ""
            raise ConfigError(f"{command} config key {key!r} must be "
                              f"{what}{null}, got {reprlib.repr(value)}") from None
        except ValueError as e:  # NumericError included
            raise ConfigError(f"{command} config key {key!r}: {e}") from None
    try:  # every command has a seed
        _check_seed(typed["seed"])
    except NumericError as e:
        raise ConfigError(str(e)) from None
    return config, typed


def _check(cfg: dict, key: str, ok: bool, want: str) -> None:
    """ConfigError unless ``ok``, the range check of config value ``key``."""
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {reprlib.repr(cfg[key])}")


class _Run:
    """One command's run, built by ``main`` from the header and ``--out``: the
    header every artifact embeds, and the one record of what the result line
    says of the run itself, the files written (``files``) and the stage wall
    times (``timings_ms`` and a rate, on stdout only, as the artifacts are
    byte-deterministic)."""

    def __init__(self, header: dict, out_dir: str):
        self.header, self._out_dir = header, out_dir
        self._files: dict[str, str] = {}
        self._stages: list[tuple] = []  # (name, rate, items, perf_counter at start)

    def file(self, key: str, name: str) -> str:
        """The path of artifact ``name`` in the out directory, made if missing;
        the result line reports it as ``files[key]``."""
        os.makedirs(self._out_dir, exist_ok=True)
        path = self._files[key] = os.path.join(self._out_dir, name)
        return path

    def write_json(self, key: str, name: str, doc: dict) -> None:
        """Write the header and ``doc`` to ``file(key, name)`` as one canonical JSON line."""
        formats.write_lines(self.file(key, name), formats.canonical_json(self.header | doc))

    def write_rows(self, key: str, name: str, lines: typing.Iterable[str]) -> str:
        """Write the header line and the JSONL ``lines`` to ``file(key, name)``; its path."""
        path = self.file(key, name)
        formats.write_lines(path, formats.canonical_json(self.header), lines)
        return path

    def stage(self, name: str, rate: str | None = None, items: int = 0) -> None:
        """End the running stage, if any, and start ``name``; ``rate`` names
        the result key of ``items`` per second of it."""
        self._stages.append((name, rate, items, time.perf_counter()))

    def report(self) -> dict:
        """``files``, and ``timings_ms`` and the rate of a staged run, whose
        last stage ends here."""
        report = {"files": self._files}
        ends = [*(t for *_, t in self._stages[1:]), time.perf_counter()]
        for (name, rate, items, start), end in zip(self._stages, ends):
            report.setdefault("timings_ms", {})[name] = round(1e3 * (end - start), 3)
            if rate:
                report[rate] = round(items / (end - start), 1)
        return report


def _synth_config(cfg: dict) -> synth.SynthConfig:
    defaults = (
        synth.multilabel_default_maps()
        if cfg["task"] == "multilabel"
        else synth.counting_default_maps()
    )
    return _build(synth.SynthConfig, cfg, **{
        key: default if cfg[key] is None else cfg[key]
        for key, default in zip(("alpha_map", "beta_map"), defaults)})


# Each ``_*_lines`` template spells its JSONL rows as ``canonical_json`` spells the
# row object (keys sorted, each int or float of ``.tolist()`` by repr), building none;
# an array's values come one block of rows at a time (``formats._block_rows``).
def _count_lines(features: np.ndarray, counts) -> typing.Iterator[str]:
    """data.jsonl and features.jsonl rows: {"count", "features"}."""
    return (f'{{"count":{c!r},"features":[{",".join(map(repr, f))}]}}\n'
            for f, c in formats._block_rows(features, counts))


def _record_lines(scores: np.ndarray, labels: list) -> typing.Iterator[str]:
    """records.jsonl rows: {"scores", "truth"}."""
    return (f'{{"scores":[{",".join(map(repr, s))}],"truth":[{",".join(map(repr, t))}]}}\n'
            for s, t in formats._block_rows(scores, labels))


def _image_count_lines(counts: typing.Iterable[int]) -> typing.Iterator[str]:
    """counts.jsonl rows: {"count", "image_id"}, image i the i-th count."""
    return (f'{{"count":{c!r},"image_id":{i!r}}}\n' for i, c in enumerate(counts))


def cmd_synth(cfg: dict, run: _Run) -> dict:
    scfg = _synth_config(cfg)
    task = cfg["task"]
    n_clamped = 0  # the drawn cardinalities above what the task can hold
    run.stage("draw")
    if task == "counting":
        x, counts = synth.counting_arrays(scfg)
        run.stage("write")
        path = run.write_rows("data", "data.jsonl", _count_lines(x, counts))
        log.info("wrote %d counting samples to %s", len(counts), path)
    elif task == "multilabel":
        x, scores, labels, n_clamped = synth.multilabel_arrays(scfg)
        run.stage("write")
        run.write_rows("records", "records.jsonl", _record_lines(scores, labels))
        run.write_rows("features", "features.jsonl", _count_lines(x, list(map(len, labels))))
    else:
        proposals, gts, n_clamped = synth.box_tables(scfg)
        run.stage("write")
        formats.write_boxes(run.file("proposals", "proposals.txt"), run.header,
                            enumerate(proposals), with_score=True)
        formats.write_boxes(run.file("gt", "gt.txt"), run.header, enumerate(gts), with_score=False)
        run.write_rows("counts", "counts.jsonl", _image_count_lines(map(len, gts)))
    return {"n": cfg["n"], "n_clamped": n_clamped}


def _layer_widths(cfg: dict) -> list[int]:
    """The network's widths after its input: the checked ``hidden`` widths,
    then the output width of the ``loss`` kind."""
    _check(cfg, "hidden", min(cfg["hidden"], default=1) >= 1, "widths >= 1")
    return [*cfg["hidden"], cardnet.OUTPUT_WIDTH[cfg["loss"]]]


def _loss_lines(losses: list[float]) -> typing.Iterator[str]:
    """train_log.jsonl rows: {"epoch", "loss"}, epoch e the e-th loss."""
    return (f'{{"epoch":{e!r},"loss":{l!r}}}\n' for e, l in enumerate(losses))


def cmd_train(cfg: dict, run: _Run) -> dict:
    widths = _layer_widths(cfg)
    head = _build(HeadWeights, cfg)
    tcfg = _build(cardnet.TrainConfig, cfg)
    run.stage("read")
    X, counts = formats.read_records(cfg["data"], "features", "count")
    if not len(counts):
        raise DataError(f"no training records in {cfg['data']}")
    run.stage("train", "samples_per_s", tcfg.epochs * len(counts))
    model = cardnet.init_model([X.shape[1], *widths], activation=cfg["activation"],
                               head=head, seed=cfg["seed"], kind=cfg["loss"])
    losses: list[float] = []  # by epoch, from 0
    trained = cardnet.train(model, (X, counts), tcfg,
                            epoch_callback=lambda e, l: losses.append(l))
    run.stage("write")
    cardnet.save_model(trained, run.file("model", "model.json"),
                       meta={"config_hash": run.header["config_hash"]})
    run.write_rows("train_log", "train_log.jsonl", _loss_lines(losses))
    return {"final_loss": losses[-1], "n_samples": len(counts)}


def _prediction_lines(alpha, beta, mode) -> typing.Iterator[str]:
    """The predictions.jsonl rows of ``predict_batch``'s arrays, each spelled as
    ``canonical_json`` spells {"alpha", "beta", "mode"} (regression: {"mode"}):
    keys sorted, numbers by repr.  Unlike row dicts, strings never start a
    collector pass.  The arrays give their values one block of
    ``formats._ROWS_PER_BLOCK`` rows at a time."""
    if alpha is None:
        return (f'{{"mode":{m!r}}}\n' for (m,) in formats._block_rows(mode))
    return (f'{{"alpha":{a!r},"beta":{b!r},"mode":{m!r}}}\n'
            for a, b, m in formats._block_rows(alpha, beta, mode))


def cmd_predict(cfg: dict, run: _Run) -> dict:
    run.stage("read")
    model = cardnet.load_model(cfg["model"])
    (X,) = formats.read_records(cfg["features"], "features", width=model.dims[0])
    run.stage("predict", "rows_per_s", len(X))
    predicted = cardnet.predict_batch(model, X)
    run.stage("write")
    run.write_rows("predictions", "predictions.jsonl", _prediction_lines(*predicted))
    return {"n": len(X)}


def cmd_eval_ml(cfg: dict, run: _Run) -> dict:
    mode = cfg["mode"]
    _check(cfg, "k_values", mode != "fixed-k" or cfg["k_values"] != [], "null or non-empty")
    if mode == "predicted-k" and not cfg["pred"]:
        raise ConfigError("predicted-k evaluation needs a 'pred' file")
    run.stage("read")
    scores, truth = formats.read_records(cfg["records"], "scores", "truth")
    if not len(scores):
        raise DataError(f"no records in {cfg['records']}")
    n_classes = scores.shape[1]
    if mode == "fixed-k":
        k_values = (list(range(0, n_classes + 1)) if cfg["k_values"] is None
                    else cfg["k_values"])
        bad = [k for k in k_values if not 0 <= k <= n_classes]
        if bad:
            raise ConfigError(f"k_values must lie in [0, C={n_classes}], got {bad[0]!r}")
        run.stage("eval", "records_per_s", len(scores))
        sweep = mlmetrics.topk_sweep((scores, truth), k_values)
        run.stage("write")
        formats.write_lines(
            run.file("curve", "curve.csv"),
            f"# {formats.canonical_json(run.header)}\nk,O-P,O-R,C-P,C-R,O-F1,C-F1",
            (f"{k!r},{s.o_precision!r},{s.o_recall!r},{s.c_precision!r},"
             f"{s.c_recall!r},{s.o_f1!r},{s.c_f1!r}\n" for k, s in sweep))
        best_k, best = max(sweep, key=lambda ks: ks[1].o_f1)
        result = {
            "mode": mode,
            "sweep": [{"k": k, **s.as_dict()} for k, s in sweep],
            "best_k": best_k,
            "best": best.as_dict(),
        }
    else:
        (m_stars,) = formats.read_records(cfg["pred"], "mode")
        if len(m_stars) != len(scores):
            raise DataError(f"{len(m_stars)} predictions for {len(scores)} records")
        run.stage("eval", "records_per_s", len(scores))
        summary = mlmetrics.predicted_k_eval((scores, truth), m_stars)
        run.stage("write")
        result = {"mode": mode, "metrics": summary.as_dict()}
    run.write_json("metrics", "metrics.json", result)
    return result


def cmd_eval_det(cfg: dict, run: _Run) -> dict:
    _check(cfg, "iou_thresh", 0.0 < cfg["iou_thresh"] < 1.0, "in (0, 1)")
    _check(cfg, "n_images", cfg["n_images"] is None or cfg["n_images"] >= 1, "null or >= 1")
    run.stage("read")
    dets = formats.read_boxes(cfg["dets"], with_score=True)
    gts = formats.read_boxes(cfg["gts"], with_score=False)
    image_ids = sorted(set(dets) | set(gts))
    if not image_ids:
        raise DataError("no images found in detection/ground-truth files")
    _check(cfg, "n_images", cfg["n_images"] is None or cfg["n_images"] >= len(image_ids),
           f"null or at least the {len(image_ids)} images in the dets and gts files")
    run.stage("eval", "images_per_s", len(image_ids))
    empty = np.zeros((0, 5))
    matches = [
        detect.match_tables(dets.get(i, empty), gts.get(i, empty), cfg["iou_thresh"])
        for i in image_ids
    ]
    n_images = len(image_ids) if cfg["n_images"] is None else cfg["n_images"]
    f1 = detect.detection_f1(matches)
    best_f1, miss, fppi, mr = detect.det_scores(matches, n_images)
    run.stage("write")
    formats.write_lines(run.file("curve", "curve.csv"),
                        f"# {formats.canonical_json(run.header)}\nfppi,miss_rate",
                        (f"{f!r},{m!r}\n" for f, m in formats._block_rows(fppi, miss)))
    result = {"f1": f1, "best_f1": best_f1, "mr": mr, "n_images": n_images}
    run.write_json("metrics", "metrics.json", result)
    return {**result, "n_matched": sum(m.tp for m in matches)}


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
        ids, counts = formats.read_records(cfg["mstar_file"], "image_id", "count")
        table = dict(zip(ids.tolist(), counts.tolist()))
        missing = [i for i in image_ids if i not in table]
        if missing:
            raise DataError(f"{cfg['mstar_file']} lacks image ids {missing[:5]}")
        return table
    if not cfg["mstar_features"]:
        raise ConfigError("mstar_model also needs mstar_features")
    model = cardnet.load_model(cfg["mstar_model"])
    (X,) = formats.read_records(cfg["mstar_features"], "features", width=model.dims[0])
    if len(X) != len(image_ids):
        raise DataError(
            f"{len(X)} feature rows for {len(image_ids)} images"
        )
    return dict(zip(image_ids, cardnet.predict_batch(model, X)[2].tolist()))


def cmd_nms(cfg: dict, run: _Run) -> dict:
    nms_cfg = _build(detect.NMSConfig, cfg)
    run.stage("read")
    proposals = formats.read_boxes(cfg["proposals"], with_score=True)
    mstar = _mstar_lookup(cfg, sorted(proposals))
    # An m* file may name images without proposals: they keep no boxes.
    image_ids = sorted(set(proposals) | set(mstar))
    run.stage("nms", "images_per_s", len(image_ids))
    empty = np.zeros((0, 5))
    kept, steps, work = {}, {}, detect.SweepWork()
    for i in image_ids:
        table = proposals.get(i, empty)
        rows, k = detect.adaptive_nms_rows(table, mstar[i], nms_cfg, work)
        kept[i] = table[rows]
        steps[k] = steps.get(k, 0) + 1
    run.stage("write")
    formats.write_boxes(run.file("kept", "kept.txt"), run.header, kept.items(), with_score=True)
    # n_short: the images where no threshold of the sweep kept m* boxes;
    # sweep_steps: how many images stopped at each threshold index k;
    # sweep_work: the walks, threshold passes, overlap rows and IoUs of all sweeps.
    return {"n_images": len(image_ids), "n_kept": sum(map(len, kept.values())),
            "n_short": sum(len(kept[i]) < mstar[i] for i in image_ids),
            "sweep_steps": steps, "sweep_work": dataclasses.asdict(work)}


def _normalised(values: list[float], key: str) -> np.ndarray:
    """``values`` divided by their sum; ConfigError naming the first entry
    that is not finite and >= 0, else a sum that is not positive and finite."""
    w = np.asarray(values, dtype=float)
    for i in np.flatnonzero(~((0.0 <= w) & (w < np.inf)))[:1].tolist():
        raise ConfigError(f"{key} entries must be finite and >= 0, "
                          f"got {key}[{i}] = {float(w[i])!r}")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not 0.0 < total < np.inf:
        raise ConfigError(f"{key} must have a positive finite sum, got {total!r}")
    return w / total


def _sample_lines(sets: list[list]) -> typing.Iterator[str]:
    """samples.jsonl rows: {"set"}, its ints or floats."""
    return (f'{{"set":[{",".join(map(repr, s))}]}}\n' for s in sets)


def cmd_sample(cfg: dict, run: _Run) -> dict:
    _check(cfg, "n", cfg["n"] >= 0, ">= 0")
    if cfg["card"] == "negbin":
        try:
            pmf = nb_pmf_truncated(_build(NegBinParams, cfg))
        except NumericError as e:  # a law the pmf cap would truncate
            raise ConfigError(str(e)) from e
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
        if not 0.0 < hi - lo < np.inf:  # False for nan, an inf bound or an overflow
            raise ConfigError("uniform element law needs hi > lo, a finite distance apart")

        def sampler(rng: np.random.Generator):
            return float(rng.uniform(lo, hi))
    run.stage("draw")
    rng = np.random.default_rng(cfg["seed"])
    sets = [setinfer.sample_rfs_with(card, sampler, rng) for _ in range(cfg["n"])]
    run.stage("write")
    run.write_rows("samples", "samples.jsonl", _sample_lines(sets))
    return {"n": len(sets), "mean_cardinality": sum(map(len, sets)) / len(sets) if sets else 0.0}


def cmd_gradcheck(cfg: dict, run: _Run) -> dict:
    for key in ("d", "batch"):
        _check(cfg, key, cfg[key] >= 1, ">= 1")
    widths = _layer_widths(cfg)
    _check(cfg, "h", 0.0 < cfg["h"] < np.inf, "finite and > 0")
    run.stage("check")
    rng = np.random.default_rng(cfg["seed"])
    d = cfg["d"]
    model = cardnet.init_model([d, *widths], seed=cfg["seed"], kind=cfg["loss"])
    draws = [(rng.uniform(-1.0, 1.0, size=d), rng.poisson(4.0)) for _ in range(cfg["batch"])]
    X, counts = map(np.array, zip(*draws))
    err = cardnet.gradient_check(model, (X, counts), h=cfg["h"])
    run.stage("write")
    run.write_json("report", "gradcheck.json", {"max_rel_error": err})
    return {"max_rel_error": err}


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
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--out", default=".", help="artifact directory")
    return parser


_PARSER = build_parser()  # one parser per process


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        if e.code not in (0, None):
            print(json.dumps({"code": "config",
                              "message": "invalid command line"}))
            return 1
        return 0
    try:
        given, config = _resolve_config(args.command, args.config, args.seed)
        run = _Run(formats.make_header(given, config["seed"]), args.out)
        result = COMMANDS[args.command](config, run)
        print(json.dumps({"command": args.command, "seed": config["seed"],
                          "config_hash": run.header["config_hash"], "config": given,
                          **result, **run.report()}, sort_keys=True))
        return 0
    except ConfigError as e:
        print(json.dumps({"code": "config", "message": str(e)}))
        return 1
    except (DataError, OSError) as e:
        print(json.dumps({"code": "data", "message": str(e)}))
        return 1
    except (SetnetError, ValueError, ArithmeticError, MemoryError) as e:
        print(json.dumps({"code": "numeric", "message": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

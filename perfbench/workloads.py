"""The three benchmark workloads: set-up steps, pipeline steps, output checks.

A workload is a list of CLI steps.  Set-up steps (synth, and for det-crowd
the m* file the benchmark writes) run before timing; a pass is the
workload's pipeline, run again and again by the closed loop.  ``score``
reads the last pass's artifacts, derives the quality numbers and runs the
output checks, each of which is independent of the code under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Acceptance-test shape of the counting model: 8-16-2, batch 64, lr 0.03,
# head alpha_max 15 / beta_max 4.
MODEL = {"loss": "negbin", "hidden": [16], "learning_rate": 0.03,
         "batch_size": 64, "alpha_max": 15.0, "beta_max": 4.0}
MODE_RTOL = 1e-9
T_MAX = 0.95  # the nms default sweep ceiling, which kept pairs must respect


@dataclass(frozen=True)
class Step:
    label: str
    command: str
    config: dict
    out: Path


def read_rows(path: Path) -> list[dict]:
    """JSONL rows without the artifact header."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return rows[1:] if rows and "schema_version" in rows[0] else rows


def read_box_file(path: Path) -> dict[int, np.ndarray]:
    """image_id -> (n, 4+) array of the whitespace box format."""
    images: dict[int, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            parts = line.split()
            images.setdefault(int(parts[0]), []).append([float(v) for v in parts[1:]])
    return {i: np.asarray(b) for i, b in images.items()}


def nb_oracle_log_pmf(m: int, alpha: float, beta: float) -> float:
    """ln NB(m) of the (alpha, beta) head, on stdlib lgamma only."""
    return (math.lgamma(m + alpha) - math.lgamma(m + 1.0) - math.lgamma(alpha)
            + alpha * math.log(beta / (1.0 + beta)) - m * math.log1p(beta))


def mode_errors(rows: list[dict], limit: int = 5) -> list[str]:
    """Rows whose mode's pmf is below the brute-force maximum by > MODE_RTOL."""
    bad = []
    for i, r in enumerate(rows):
        a, b, mode = r["alpha"], r["beta"], r["mode"]
        mean, sd = a / b, math.sqrt(a * (1.0 + b)) / b
        top = int(mean + 12.0 * sd + 20.0)
        best = max(nb_oracle_log_pmf(m, a, b) for m in range(top + 1))
        if not nb_oracle_log_pmf(mode, a, b) >= best + math.log1p(-MODE_RTOL):
            bad.append(f"row {i}: mode {mode} for alpha={a!r} beta={b!r}")
            if len(bad) >= limit:
                break
    return bad


def mean_abs_error(pred: list[int], truth: list[int]) -> float:
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(truth))))


def best_constant_mce(truth: list[int]) -> float:
    t = np.asarray(truth)
    consts = np.arange(0, t.max() + 1)
    return float(np.abs(t[None, :] - consts[:, None]).mean(axis=1).min())


def max_pairwise_iou(b: np.ndarray) -> float:
    x1, y1, x2, y2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    ix = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    iy = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area = (x2 - x1) * (y2 - y1)
    iou = inter / (area[:, None] + area[None, :] - inter)
    np.fill_diagonal(iou, 0.0)
    return float(iou.max()) if len(b) > 1 else 0.0


class Workload:
    name = ""
    # The workload's own figure behind each generic end-to-end metric.
    headline: dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        # Independent sub-seeds for each generated input, all from --seed.
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]

    def setup_steps(self, data: Path) -> list[Step]:
        raise NotImplementedError

    def after_setup(self, data: Path) -> None:
        """Benchmark-side inputs derived from the synth output."""

    def pass_steps(self, data: Path, out: Path) -> list[Step]:
        raise NotImplementedError

    def rates(self, times: dict[str, float]) -> dict[str, float]:
        """Named throughputs of one pass from its per-step seconds."""
        raise NotImplementedError

    def score(self, data: Path, out: Path) -> tuple[dict[str, float], list[tuple[str, str]]]:
        """Quality numbers of a pass and the (step label, message) of each failed check."""
        raise NotImplementedError


class CountTrain(Workload):
    name = "count-train"
    headline = {"hot_per_s": "train_samples_per_s", "quality_loss": "mce"}
    N_TRAIN, N_TEST, EPOCHS = 15000, 5000, 10

    def setup_steps(self, data):
        return [
            Step("synth", "synth", {"task": "counting", "n": self.N_TRAIN, "d": 8,
                                    "seed": self.seeds[0]}, data / "train"),
            Step("synth", "synth", {"task": "counting", "n": self.N_TEST, "d": 8,
                                    "seed": self.seeds[1]}, data / "test"),
        ]

    def pass_steps(self, data, out):
        return [
            Step("train", "train", {**MODEL, "data": str(data / "train" / "data.jsonl"),
                                    "epochs": self.EPOCHS, "seed": self.seeds[2]},
                 out / "train"),
            Step("predict", "predict", {"model": str(out / "train" / "model.json"),
                                        "features": str(data / "test" / "data.jsonl")},
                 out / "predict"),
        ]

    def rates(self, times):
        return {
            "train_samples_per_s": self.EPOCHS * self.N_TRAIN / times["train"],
            "predict_rows_per_s": self.N_TEST / times["predict"],
        }

    def score(self, data, out):
        preds = read_rows(out / "predict" / "predictions.jsonl")
        truth = [r["count"] for r in read_rows(data / "test" / "data.jsonl")]
        mce = mean_abs_error([r["mode"] for r in preds], truth)
        const = best_constant_mce(truth)
        failures = [("predict", e) for e in mode_errors(preds)]
        if not mce <= 0.8 * const:
            failures.append(("predict", f"MCE {mce:.4f} > 0.8 x best constant {const:.4f}"))
        return {"mce": mce, "mce_best_constant": const}, failures


class MlEval(Workload):
    name = "ml-eval"
    headline = {"hot_per_s": "eval_ml_records_per_s", "quality_loss": "o_f1_loss"}
    # Predicted-k must stay within 0.02 of the best fixed-k O-F1.  With batch
    # 64 the final SGD steps leave too much noise: 6k rows x 60 epochs (the
    # acceptance-test shape) missed by 0.013 on one seed in ten.  10k rows x
    # 20 epochs at batch 512 cleared it by >= 0.027 on seeds 101-110.
    N_TRAIN, N_TEST, EPOCHS, BATCH, C = 10000, 10000, 20, 512, 16

    def setup_steps(self, data):
        return [
            Step("synth", "synth", {"task": "multilabel", "n": self.N_TRAIN, "d": 8,
                                    "C": self.C, "seed": self.seeds[0]}, data / "train"),
            Step("synth", "synth", {"task": "multilabel", "n": self.N_TEST, "d": 8,
                                    "C": self.C, "seed": self.seeds[1]}, data / "test"),
        ]

    def pass_steps(self, data, out):
        test = data / "test"
        return [
            Step("train", "train", {**MODEL, "data": str(data / "train" / "features.jsonl"),
                                    "epochs": self.EPOCHS, "batch_size": self.BATCH,
                                    "seed": self.seeds[2]},
                 out / "train"),
            Step("predict", "predict", {"model": str(out / "train" / "model.json"),
                                        "features": str(test / "features.jsonl")},
                 out / "predict"),
            Step("eval-ml fixed-k", "eval-ml", {"records": str(test / "records.jsonl")},
                 out / "fixed"),
            Step("eval-ml predicted-k", "eval-ml",
                 {"records": str(test / "records.jsonl"), "mode": "predicted-k",
                  "pred": str(out / "predict" / "predictions.jsonl")},
                 out / "predicted"),
        ]

    def rates(self, times):
        eval_s = times["eval-ml fixed-k"] + times["eval-ml predicted-k"]
        return {
            "train_samples_per_s": self.EPOCHS * self.N_TRAIN / times["train"],
            "predict_rows_per_s": self.N_TEST / times["predict"],
            "eval_ml_records_per_s": 2 * self.N_TEST / eval_s,
        }

    def score(self, data, out):
        preds = read_rows(out / "predict" / "predictions.jsonl")
        truth = [r["count"] for r in read_rows(data / "test" / "features.jsonl")]
        with open(out / "fixed" / "metrics.json", encoding="utf-8") as fh:
            fixed = json.load(fh)
        with open(out / "predicted" / "metrics.json", encoding="utf-8") as fh:
            predicted = json.load(fh)
        o_f1 = predicted["metrics"]["O-F1"]
        best = fixed["best"]["O-F1"]
        failures = [("predict", e) for e in mode_errors(preds)]
        if not o_f1 >= best - 0.02:
            failures.append(("eval-ml predicted-k",
                             f"predicted-k O-F1 {o_f1:.4f} < best fixed-k {best:.4f} - 0.02"))
        mce = mean_abs_error([r["mode"] for r in preds], truth)
        return {"o_f1": o_f1, "o_f1_loss": 1.0 - o_f1, "o_f1_fixed_best": best,
                "mce": mce}, failures


class DetCrowd(Workload):
    name = "det-crowd"
    headline = {"hot_per_s": "nms_images_per_s", "quality_loss": "lamr"}
    N_IMAGES = 300
    # Summed n^2 of the unreachable and the twice-the-count images: about
    # what the 1-in-20 and 4-in-20 shares of 300 scenes hold on average.
    UNREACHABLE_N2, TWICE_N2 = 600_000, 2_600_000
    SCENE = {"task": "boxes", "d": 8, "cell_count": 10, "box_size": 12.0,
             "duplicates": 8, "fp_rate": 2.0,
             "alpha_map": {"weights": [150.0, 0.8], "bias": -64.0, "lo": 0.11, "hi": 60.0}}

    def setup_steps(self, data):
        return [Step("synth", "synth", {**self.SCENE, "n": self.N_IMAGES,
                                        "seed": self.seeds[0]}, data / "scene")]

    def after_setup(self, data):
        """Write m* per image: most images get their true count, about 1 in
        5 twice it and about 1 in 20 its proposal count + 1 (unreachable, so
        the whole threshold sweep runs).

        A greedy NMS sweep costs about n^2 IoU calls per threshold tried on
        an image of n proposals: about 9 n^2 in all when m* is unreachable,
        1.3 n^2 at twice the count, and little at the true count.  So that
        every seed asks for the same work, the two costly kinds are filled
        to fixed budgets of summed n^2.  Candidates come from a systematic
        sample over the images ranked by proposal count, at a seeded offset
        (slot 0 of every 20 for unreachable, slots 1-4 for twice the count),
        so each scene size gets its share; a candidate that would overrun
        the budget is skipped, and the remainder is filled from the other
        images in rank order.  With a plain 1-in-20 split, which large
        scenes fell on the unreachable slots moved the pass time by half
        between seeds."""
        scene = data / "scene"
        proposals = read_box_file(scene / "proposals.txt")
        counts = {r["image_id"]: r["count"] for r in read_rows(scene / "counts.jsonl")}
        self.nms_ids = sorted(proposals)
        ranked = sorted(proposals, key=lambda i: (-len(proposals[i]), i))
        offset = int(np.random.default_rng(self.seeds[1]).integers(20))
        slot = {image_id: (rank - offset) % 20 for rank, image_id in enumerate(ranked)}
        mstar = dict(counts)
        assigned: set[int] = set()
        for slots, budget, target in (
                ({0}, self.UNREACHABLE_N2, lambda i: len(proposals[i]) + 1),
                ({1, 2, 3, 4}, self.TWICE_N2, lambda i: 2 * counts[i])):
            order = ([i for i in ranked if slot[i] in slots]
                     + [i for i in ranked if slot[i] not in slots])
            for image_id in order:
                cost = len(proposals[image_id]) ** 2
                if image_id in assigned or target(image_id) == counts[image_id]:
                    continue
                if cost <= budget:
                    mstar[image_id] = target(image_id)
                    assigned.add(image_id)
                    budget -= cost
        with open(scene / "mstar.jsonl", "w", encoding="utf-8") as fh:
            for image_id in sorted(mstar):
                fh.write(json.dumps({"image_id": image_id, "count": mstar[image_id]}) + "\n")

    def pass_steps(self, data, out):
        scene = data / "scene"
        return [
            Step("nms", "nms", {"proposals": str(scene / "proposals.txt"),
                                "mstar_file": str(scene / "mstar.jsonl"), "t_max": T_MAX},
                 out / "nms"),
            # The synth n, so images without any box still count towards FPPI.
            Step("eval-det", "eval-det", {"dets": str(out / "nms" / "kept.txt"),
                                          "gts": str(scene / "gt.txt"),
                                          "n_images": self.N_IMAGES},
                 out / "eval"),
        ]

    def rates(self, times):
        return {
            "nms_images_per_s": len(self.nms_ids) / times["nms"],
            "eval_det_images_per_s": self.N_IMAGES / times["eval-det"],
        }

    def score(self, data, out):
        scene = data / "scene"
        mstar = {r["image_id"]: r["count"] for r in read_rows(scene / "mstar.jsonl")}
        kept = read_box_file(out / "nms" / "kept.txt")
        failures = []
        for image_id, boxes in sorted(kept.items()):
            if len(boxes) > mstar[image_id]:
                failures.append(("nms", f"image {image_id}: kept {len(boxes)} > m* {mstar[image_id]}"))
            worst = max_pairwise_iou(boxes)
            if worst > T_MAX + 1e-12:
                failures.append(("nms", f"image {image_id}: kept pair IoU {worst!r} > {T_MAX}"))
        met = sum(len(kept.get(i, ())) == mstar[i] for i in self.nms_ids)
        with open(out / "eval" / "metrics.json", encoding="utf-8") as fh:
            ev = json.load(fh)
        if ev["n_images"] != self.N_IMAGES:
            failures.append(("eval-det", f"eval-det counted {ev['n_images']} images, not {self.N_IMAGES}"))
        return {"det_f1": ev["f1"], "lamr": ev["mr"],
                "mstar_met_ratio": met / len(self.nms_ids)}, failures


WORKLOADS = {w.name: w for w in (CountTrain, MlEval, DetCrowd)}

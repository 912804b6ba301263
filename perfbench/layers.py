"""Per-layer metrics computed from a Tracer's spans and counters.

README.md lists the end-to-end metric (and workload) each one should move.
"""

from __future__ import annotations

import numpy as np

UNITS = {
    "numerics.log_gamma.calls": "count",
    "numerics.digamma.calls": "count",
    "numerics.nb_mode.calls": "count",
    "numerics.self_s": "s",
    "cardloss.card_nll.calls": "count",
    "cardloss.card_grad.calls": "count",
    "cardloss.self_s": "s",
    "cardnet.loss_and_grads.calls": "count",
    "cardnet.loss_and_grads.us_p50": "us",
    "cardnet.loss_and_grads.us_p90": "us",
    "cardnet.forward.calls": "count",
    "cardnet.self_s": "s",
    "mlmetrics.aggregate.calls": "count",
    "mlmetrics.aggregate.ms_p50": "ms",
    "mlmetrics.top_k_labels.calls": "count",
    "mlmetrics.self_s": "s",
    "detect.iou.calls": "count",
    "detect.greedy_nms.calls": "count",
    "detect.sweep_steps_per_image": "steps",
    "detect.mstar_met_ratio": "ratio",
    "detect.adaptive_nms.ms_p50": "ms",
    "detect.adaptive_nms.ms_p90": "ms",
    "detect.match_detections.self_s": "s",
    "detect.self_s": "s",
    "formats.rows_read": "count",
    "formats.rows_written": "count",
    "formats.self_s": "s",
    "synth.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer) -> dict[str, float]:
    """Every metric in UNITS except the two the run itself supplies
    (``detect.mstar_met_ratio``, ``trace.overhead_ratio``)."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    layers = sorted({n.split(".")[0] for n in tracer.names})
    layer_of_name = np.asarray([layers.index(n.split(".")[0]) for n in tracer.names], dtype=np.int32)
    layer = layer_of_name[a["name"]] if len(layer_of_name) else a["name"]

    def mask(qualname: str) -> np.ndarray:
        return a["name"] == ids.get(qualname, -1)

    def calls(qualname: str) -> int:
        return int(tracer.counts[qualname] + mask(qualname).sum())

    def pct(qualname: str, q: float, scale: float) -> float:
        d = a["dur"][mask(qualname)]
        return float(np.percentile(d, q) * scale) if len(d) else 0.0

    def self_s(prefix: str) -> float:
        if prefix not in layers:
            return 0.0
        return float(a["self"][layer == layers.index(prefix)].sum())

    adaptive = mask("detect.adaptive_nms")
    in_sweep = mask("detect.greedy_nms") & np.isin(a["parent"], np.flatnonzero(adaptive))
    return {
        "numerics.log_gamma.calls": calls("numerics.log_gamma"),
        "numerics.digamma.calls": calls("numerics.digamma"),
        "numerics.nb_mode.calls": calls("numerics.nb_mode"),
        "numerics.self_s": self_s("numerics"),
        "cardloss.card_nll.calls": calls("cardloss.card_nll"),
        "cardloss.card_grad.calls": calls("cardloss.card_grad"),
        "cardloss.self_s": self_s("cardloss"),
        "cardnet.loss_and_grads.calls": calls("cardnet.loss_and_grads"),
        "cardnet.loss_and_grads.us_p50": pct("cardnet.loss_and_grads", 50, 1e6),
        "cardnet.loss_and_grads.us_p90": pct("cardnet.loss_and_grads", 90, 1e6),
        "cardnet.forward.calls": calls("cardnet.forward"),
        "cardnet.self_s": self_s("cardnet"),
        "mlmetrics.aggregate.calls": calls("mlmetrics.aggregate"),
        "mlmetrics.aggregate.ms_p50": pct("mlmetrics.aggregate", 50, 1e3),
        "mlmetrics.top_k_labels.calls": calls("mlmetrics.top_k_labels"),
        "mlmetrics.self_s": self_s("mlmetrics"),
        "detect.iou.calls": calls("detect.iou"),
        "detect.greedy_nms.calls": calls("detect.greedy_nms"),
        "detect.sweep_steps_per_image": float(in_sweep.sum() / max(adaptive.sum(), 1)),
        "detect.adaptive_nms.ms_p50": pct("detect.adaptive_nms", 50, 1e3),
        "detect.adaptive_nms.ms_p90": pct("detect.adaptive_nms", 90, 1e3),
        "detect.match_detections.self_s": float(a["self"][mask("detect.match_detections")].sum()),
        "detect.self_s": self_s("detect"),
        "formats.rows_read": int(tracer.counts["formats.rows_read"]),
        "formats.rows_written": int(tracer.counts["formats.rows_written"]),
        "formats.self_s": self_s("formats"),
        "synth.self_s": self_s("synth"),
        "cli.self_s": self_s("cli"),
    }

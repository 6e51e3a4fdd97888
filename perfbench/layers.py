"""Per-layer metrics of the traced run.

Span metrics come from the service's own tracer (collected through the
``trace`` op); counter metrics are differences of the ``metrics`` op
taken around the measured update rounds.  A ``*_ms`` layer metric is
the summed self time of the layer's spans divided by the updates
delivered, so the layers of one update add up to its traced time.

The sharded evaluator has no spans for its phases (raw leaf distances,
normalization, combination, fulfilment masks), so ``server.py`` times
those calls itself and reports their summed self time through the
``metrics`` op under ``perfbench`` (see :data:`server.PHASES`).  Calls
made on parallel shard threads add up, so a phase can exceed the wall
time it overlaps.
"""

from __future__ import annotations

from stats import median, self_times

#: Per-update self time of these spans (span name -> metric name).
SPAN_MS = {
    "frame.encode": "protocol.frame_encode_ms",
    "delta.encode": "protocol.delta_encode_ms",
    "wire.send": "protocol.wire_send_ms",
    "coalesce.wait": "service.coalesce_wait_ms",
    "scheduler.queue": "service.scheduler_queue_ms",
    "session.execute_batch": "session.execute_ms",
    "frame.build": "session.frame_build_ms",
    "engine.refresh": "engine.refresh_ms",
    "plan.evaluate": "engine.plan_evaluate_ms",
    "displayed.select": "engine.displayed_select_ms",
    "relevance.update": "engine.relevance_ms",
    "result_count": "engine.result_count_ms",
    "frame.delta": "engine.frame_delta_ms",
    "node.evaluate": "plan.node_evaluate_ms",
    "pipeline.offload": "backend.offload_ms",
    "backend.broadcast": "backend.broadcast_ms",
    "pipeline.round": "backend.pipeline_round_ms",
}
#: Worker-side spans (``worker.leaf``, ``worker.pipeline_*``).
WORKER_PREFIX = "worker."

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "protocol.event_ack_ms": "ms",
    "protocol.frame_encode_ms": "ms",
    "protocol.full_encodes_per_update": "count",
    "protocol.delta_encode_ms": "ms",
    "protocol.wire_send_ms": "ms",
    "protocol.delta_share": "ratio",
    "service.coalesce_wait_ms": "ms",
    "service.scheduler_queue_ms": "ms",
    "service.events_per_run": "count",
    "session.execute_ms": "ms",
    "session.frame_build_ms": "ms",
    "session.render_hit_ratio": "ratio",
    "engine.prepare_ms": "ms",
    "engine.refresh_ms": "ms",
    "engine.plan_evaluate_ms": "ms",
    "engine.displayed_select_ms": "ms",
    "engine.relevance_ms": "ms",
    "engine.result_count_ms": "ms",
    "engine.frame_delta_ms": "ms",
    "engine.displayed_certified_ratio": "ratio",
    "engine.quantile_certified_ratio": "ratio",
    "plan.node_evaluate_ms": "ms",
    "plan.leaf_raw_ms": "ms",
    "plan.normalize_ms": "ms",
    "plan.combine_ms": "ms",
    "plan.mask_ms": "ms",
    "shard.shards_recomputed_per_update": "count",
    "shard.shards_reused_per_update": "count",
    "shard.slice_hit_ratio": "ratio",
    "shard.bounds_certified_ratio": "ratio",
    "chunks.patched_per_update": "count",
    "chunks.shared_per_update": "count",
    "backend.attach_ms": "ms",
    "backend.offload_ms": "ms",
    "backend.broadcast_ms": "ms",
    "backend.pipeline_round_ms": "ms",
    "backend.worker_ms": "ms",
    "backend.offloaded_ops_per_update": "count",
    "backend.reply_bytes_per_update": "B",
    "backend.published_bytes": "B",
    "backend.fallbacks": "count",
    "traced.update_p50_ms": "ms",
}


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 when the layer never ran (``whole`` is 0)."""
    return part / whole if whole else 0.0


class CounterDelta:
    """Sums of ``metrics`` op differences over the measured rounds."""

    PATHS = {
        "deltas_sent": ("wire", "deltas_sent"),
        "snapshots_sent": ("wire", "snapshots_sent"),
        "runs": ("service", "runs"),
        "events_executed": ("service", "events_executed"),
        "shards_recomputed": ("incremental", "shards_recomputed"),
        "shards_reused": ("incremental", "shards_reused"),
        "slice_hits": ("incremental", "slice_hits"),
        "slice_misses": ("incremental", "slice_misses"),
        "chunks_patched": ("incremental", "chunks_patched"),
        "chunks_shared": ("incremental", "chunks_shared"),
        "offloaded_ops": ("backend", "offloaded_ops"),
        "reply_bytes": ("backend", "reply_bytes"),
        "fallbacks": ("backend", "fallbacks"),
        "leaf_raw_ms": ("perfbench", "leaf_raw_ms"),
        "normalize_ms": ("perfbench", "normalize_ms"),
        "combine_ms": ("perfbench", "combine_ms"),
        "mask_ms": ("perfbench", "mask_ms"),
    }

    def __init__(self):
        self.totals = {key: 0 for key in self.PATHS}

    @classmethod
    def read(cls, metrics: dict) -> dict[str, int]:
        values = {}
        for key, path in cls.PATHS.items():
            node = metrics
            for part in path:
                node = (node or {}).get(part)
            values[key] = node or 0
        return values

    def add(self, before: dict, after: dict) -> None:
        for key in self.totals:
            self.totals[key] += after[key] - before[key]


def span_metrics(traces: list[dict], updates: int) -> dict[str, float]:
    """Span-derived metrics over the measured update traces."""
    sums = {metric: 0.0 for metric in SPAN_MS.values()}
    worker = 0.0
    full_encodes = 0
    windows = fresh = 0
    certs = {"displayed-topk": [0, 0], "quantile": [0, 0], "bounds": [0, 0]}
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for span in spans:
            name = span["name"]
            metric = SPAN_MS.get(name)
            if metric is not None:
                sums[metric] += selfs[span["id"]]
            elif name.startswith(WORKER_PREFIX):
                worker += selfs[span["id"]]
            attrs = span["attrs"]
            if name == "frame.encode" and attrs.get("mode") == "snapshot":
                full_encodes += 1
            if name == "frame.build":
                windows += attrs.get("windows", 0)
                fresh += attrs.get("rendered_fresh", 0)
            cert = certs.get(attrs.get("certificate"))
            if cert is not None:
                cert[0] += bool(attrs.get("certified"))
                cert[1] += 1
    out = {metric: total / updates for metric, total in sums.items()}
    out["backend.worker_ms"] = worker / updates
    out["protocol.full_encodes_per_update"] = full_encodes / updates
    out["session.render_hit_ratio"] = _ratio(windows - fresh, windows)
    out["engine.displayed_certified_ratio"] = _ratio(*certs["displayed-topk"])
    out["engine.quantile_certified_ratio"] = _ratio(*certs["quantile"])
    out["shard.bounds_certified_ratio"] = _ratio(*certs["bounds"])
    return out


def counter_metrics(delta: CounterDelta, updates: int) -> dict[str, float]:
    t = delta.totals
    return {
        "protocol.delta_share": _ratio(
            t["deltas_sent"], t["deltas_sent"] + t["snapshots_sent"]),
        "service.events_per_run": _ratio(t["events_executed"], t["runs"]),
        "shard.shards_recomputed_per_update": t["shards_recomputed"] / updates,
        "shard.shards_reused_per_update": t["shards_reused"] / updates,
        "shard.slice_hit_ratio": _ratio(
            t["slice_hits"], t["slice_hits"] + t["slice_misses"]),
        "chunks.patched_per_update": t["chunks_patched"] / updates,
        "chunks.shared_per_update": t["chunks_shared"] / updates,
        "backend.offloaded_ops_per_update": t["offloaded_ops"] / updates,
        "backend.reply_bytes_per_update": t["reply_bytes"] / updates,
        "plan.leaf_raw_ms": t["leaf_raw_ms"] / updates,
        "plan.normalize_ms": t["normalize_ms"] / updates,
        "plan.combine_ms": t["combine_ms"] / updates,
        "plan.mask_ms": t["mask_ms"] / updates,
    }


def attach_ms(traces: list[dict]) -> float:
    """Total ``backend.attach`` time over every trace of the run."""
    return sum(span["duration_ms"] for trace in traces
               for span in trace["spans"] if span["name"] == "backend.attach")


def layer_report(*, update_traces: list[dict], all_traces: list[dict],
                 delta: CounterDelta, updates: int, event_acks: list[float],
                 prepare_ms: list[float], published_bytes: int,
                 fallbacks: int, update_p50_ms: float) -> dict[str, float]:
    out = span_metrics(update_traces, updates)
    out.update(counter_metrics(delta, updates))
    out["protocol.event_ack_ms"] = median(event_acks)
    out["engine.prepare_ms"] = median(prepare_ms) if prepare_ms else 0.0
    out["backend.attach_ms"] = attach_ms(all_traces)
    out["backend.published_bytes"] = float(published_bytes)
    out["backend.fallbacks"] = float(fallbacks)
    out["traced.update_p50_ms"] = update_p50_ms
    missing = set(UNITS) - set(out)
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in UNITS}

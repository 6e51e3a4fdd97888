"""The feedback server under test, in its own process.

Run by ``run.py``; not meant to be started by hand, though it can be::

    PYTHONPATH=src python3 perfbench/server.py --workload drag-4m --seed 1

It builds the workload's table from the seed, starts a ``FeedbackService``
with the deployment defaults (plus the workload's shard count, backend
and, for the traced run, full span tracing), runs one warm-up query so
the backend and the shard pools are started, then serves the v2 protocol
on an ephemeral loopback port.  Readiness is announced as one JSON line
on stdout; the server stops when its stdin closes, and prints one last
JSON line with the ``QueryEngine.prepare`` timings it recorded.

In the traced run it also times the calls the tracer has no span for:
``QueryEngine.prepare`` per open, and the sharded evaluator's phases
(:data:`PHASES`), whose running totals the ``metrics`` op reports under
``perfbench``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import TABLE, WORKLOADS, make_columns, to_sql, warmup_tree  # noqa: E402

import repro.core.shard as shard  # noqa: E402
from repro import FeedbackService, PipelineConfig, ServiceConfig  # noqa: E402
from repro.service import FeedbackProtocolServer  # noqa: E402
from repro.storage.table import Table  # noqa: E402

#: Retained traces in the traced run.  The client pulls the ring every
#: few updates, well before it can wrap, and checks trace ids for gaps.
TRACE_RING = 512


#: Phase -> (owner, attribute) of the call timed for it.  The leaf kernels
#: and masks are evaluator methods; normalization and combination are the
#: module-level functions ``repro.core.shard`` calls once per shard.
PHASES = {
    "leaf_raw_ms": (shard.ShardedPlanEvaluator, "_compute_leaf_raw"),
    "mask_ms": (shard.ShardedPlanEvaluator, "_exact_mask"),
    "normalize_ms": (shard, "apply_normalization"),
    "combine_ms": (shard, "combine_columns"),
}


class PhaseTimers:
    """Self time (ms) of the :data:`PHASES` calls, summed over threads.

    A call nested in another timed call on the same thread (the mask of a
    leaf) is taken out of the outer call's time, as span self time is.
    """

    def __init__(self):
        self.totals = dict.fromkeys(PHASES, 0.0)
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        for name, (owner, attr) in PHASES.items():
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.totals[name] += (elapsed - nested) * 1e3

        return timed

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.totals)


def _timed_prepare(engine, sink: list[float]):
    prepare = engine.prepare

    def timed(query, **overrides):
        t0 = time.perf_counter()
        try:
            return prepare(query, **overrides)
        finally:
            sink.append((time.perf_counter() - t0) * 1e3)

    return timed


async def _serve(args) -> None:
    workload = WORKLOADS[args.workload]
    table = Table(TABLE, make_columns(workload.rows, args.seed))
    config = PipelineConfig(shard_count=workload.shards,
                            backend=workload.backend)
    service_config = (ServiceConfig(trace_enabled=True, trace_sample=1.0,
                                    trace_ring=TRACE_RING)
                      if args.trace else ServiceConfig())
    prepare_ms: list[float] = []
    async with FeedbackService(table, config,
                               service_config=service_config) as service:
        loop = asyncio.get_running_loop()
        engine = service.engine
        overrides = workload.session_config
        warmup_query = to_sql(warmup_tree(workload, args.seed))

        def warm_up():
            # Traced as "setup" in the traced run, so the backend's attach
            # round is visible to the per-layer report.
            with service.tracer.trace("setup"):
                engine.prepare(warmup_query, **overrides).execute()

        await loop.run_in_executor(None, warm_up)
        if args.trace:
            engine.prepare = _timed_prepare(engine, prepare_ms)
            phases = PhaseTimers()
            phases.install()
            report = service.metrics_report
            service.metrics_report = lambda: {**report(),
                                              "perfbench": phases.snapshot()}
        server = await FeedbackProtocolServer(service).start()
        print(json.dumps({"ready": server.port}), flush=True)
        # Serve until the client closes our stdin.
        await loop.run_in_executor(None, sys.stdin.read)
        await server.aclose()
    print(json.dumps({"prepare_ms": prepare_ms}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    asyncio.run(_serve(parser.parse_args()))


if __name__ == "__main__":
    main()

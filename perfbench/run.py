"""End-to-end benchmark of the VisDB feedback loop over the v2 wire.

One load-generating client (this process) drives a feedback server
(``server.py``, its own process) through ``open`` -> ``subscribe`` ->
``event`` -> ``delta`` -> ``resync`` -> ``close`` in closed loops, checks
every settled frame against a NumPy oracle and a delta applier written
from ``docs/protocol.md``, and prints the metrics of one workload::

    python3 perfbench/run.py --workload drag-4m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
server with full span tracing and reports the per-layer metrics.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Frames that fail only by the program's known
display fault (``oracle.HIDDEN_ANSWERS``, with its exact signature) count
in ``failed`` but leave ``correct`` true; any other failed operation or
check makes ``correct`` false and the exit code 1.  See ``README.md``
here for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from applier import FrameError, apply, same_state  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402
from layers import CounterDelta, layer_report  # noqa: E402
from oracle import HIDDEN_ANSWERS, Oracle, check_frame  # noqa: E402
from procstat import cpu_seconds, peak_rss_mb, steal_ticks  # noqa: E402
from stats import MIN_TAIL_SAMPLES, median, tail  # noqa: E402
from wire import Conn, WireError, drain  # noqa: E402
from workloads import WORKLOADS, leaf_count, make_columns, session_plan, to_sql  # noqa: E402

#: Server launches per run; ``setup_s`` is their median, the last one
#: serves the run.
SETUP_LAUNCHES = 3
READY_TIMEOUT_S = 150.0
REPLY_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_frame_ms": "ms",
    "first_frame_bytes": "B",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "updates_per_s": "1/s",
    "update_bytes_p50": "B",
    "server_cpu_ms_per_update": "ms",
    "server_peak_rss_mb": "MB",
}


class Server:
    """The server process; construction returns once it answers a ping."""

    def __init__(self, workload: str, seed: int, trace: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("the server did not become ready")
            self.port = json.loads(line)["ready"]
            conn = Conn(self.port, REPLY_TIMEOUT_S)
            try:
                conn.send({"op": "ping"}, lambda reply: None)
                drain([conn], REPLY_TIMEOUT_S)
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> dict:
        """Close stdin, wait for the exit; the server's last report line."""
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.decode().strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


@dataclass
class PassSamples:
    """The samples of one measured pass.

    A run reads each timing from its quietest pass: the host's other
    guests only ever add time, so the fastest pass is the one they
    disturbed least.
    """

    first_frame_ms: list[float] = field(default_factory=list)
    update_ms: list[float] = field(default_factory=list)
    #: Wall time of the measured rounds: first tick sent to last reply.
    round_s: float = 0.0
    #: Server (and worker) CPU seconds over the rounds.
    cpu_s: float = 0.0


class Session:
    """Client-side state of one session."""

    def __init__(self, plan, conn: Conn):
        self.plan = plan
        self.conn = conn
        self.predicates = leaf_count(plan.tree)
        self.id: str | None = None
        self.state: dict | None = None
        self.open_sent = 0.0
        self.first_tick = 0.0
        self.reply = None


class Bench:
    """One run of one workload against one server."""

    def __init__(self, workload, seed: int, server: Server, oracle: Oracle,
                 traced: bool):
        self.workload = workload
        self.seed = seed
        self.server = server
        self.oracle = oracle
        self.traced = traced
        self.conns = [Conn(server.port, REPLY_TIMEOUT_S)
                      for _ in range(workload.connections)]
        self.config = workload.session_config
        self.serial = 0
        self.measuring = False
        self.attempted = 0
        self.failed = 0
        #: Failures of the known display fault (see ``HIDDEN_ANSWERS``):
        #: counted in ``failed`` but not against ``correct``.
        self.known_faults = 0
        #: Known-fault frames of each measured pass.  The fault must
        #: strike the same number of frames in every pass, or the failed
        #: share of a run would depend on its seed and length.
        self.known_per_pass: list[int] = []
        self.problems: list[str] = []
        self.passes: list[PassSamples] = []
        self.first_frame_bytes: list[int] = []
        self.update_ms: list[float] = []
        self.update_bytes: list[int] = []
        self.event_ack_ms: list[float] = []
        # Traced run only.
        self.traces: dict[int, dict] = {}
        self.traces_started = 1  # the server's "setup" trace
        self.steady_trace_id = 0
        self.counters = CounterDelta()
        self.metrics: dict = {}

    # ------------------------------------------------------------ #
    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _send(self, conn: Conn, request: dict, on_reply,
              counted: bool = True) -> float:
        """Send one request; ``counted`` ones are workload operations
        (the traced run's ``trace`` / ``metrics`` pulls are not)."""
        self.attempted += counted
        return conn.send(request, on_reply)

    def _fail(self, message: str, known: bool = False) -> None:
        self.failed += 1
        self.known_faults += known
        if not known and len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == self.known_faults

    def check_known_faults(self) -> None:
        if len(set(self.known_per_pass)) > 1:
            self._fail("the known fault struck a different number of frames "
                       f"per pass: {sorted(set(self.known_per_pass))}")

    def _ok(self, reply, what: str) -> dict | None:
        body = reply.body
        if body.get("ok") is not True:
            self._fail(f"{what}: {body.get('code')}: {body.get('error')}")
            return None
        return body

    def _drain(self) -> None:
        drain(self.conns, REPLY_TIMEOUT_S)

    def _check(self, session: Session, what: str) -> None:
        mask = self.oracle.exact_mask(session.plan.tree)
        overall = session.state["windows"].get("")
        if overall is None:
            self._fail(f"{what} of {session.id}: no overall window")
            return
        problems = check_frame(mask, session.state["statistics"],
                               session.state["display_order"],
                               session.predicates, self.workload.percentage,
                               overall)
        if problems:
            self._fail(f"{what} of {session.id}: {'; '.join(problems)}",
                       known=problems == [HIDDEN_ANSWERS])

    def _apply(self, session: Session, body: dict, what: str) -> bool:
        try:
            session.state = apply(session.state, body)
        except (FrameError, KeyError, TypeError) as exc:
            self._fail(f"{what} of {session.id}: {type(exc).__name__}: {exc}")
            return False
        return True

    # ------------------------------------------------------------ #
    def run_pass(self, updates: int | None = None) -> None:
        """Open fresh sessions, run the update rounds (``updates``, by
        default a whole pass's), verify and close."""
        w = self.workload
        known_before = self.known_faults
        if self.measuring:
            self.passes.append(PassSamples())
        sessions = []
        for i in range(w.sessions):
            plan = session_plan(w, self.seed, self.serial)
            self.serial += 1
            sessions.append(Session(plan, self.conns[i % len(self.conns)]))
        self._open(sessions)
        live = [s for s in sessions if s.state is not None]
        if self.measuring and self.traced:
            before = self._metrics()
        cpu0 = cpu_seconds(self.server.pid)
        for _ in range(w.updates_per_pass if updates is None else updates):
            self._round(live)
            if self.traced:
                self._pull_traces()
        if self.measuring:
            self.passes[-1].cpu_s = cpu_seconds(self.server.pid) - cpu0
            if self.traced:
                self.counters.add(before, self._metrics())
        self._finish(sessions)
        if self.traced:
            self._pull_traces()
        if self.measuring:
            self.known_per_pass.append(self.known_faults - known_before)

    def start_measuring(self) -> None:
        """End the warm-up: later samples, traces and counters count."""
        self.measuring = True
        self.steady_trace_id = max(self.traces, default=0)

    def _open(self, sessions: list[Session]) -> None:
        queues = {id(c): deque(s for s in sessions if s.conn is c)
                  for c in self.conns}

        def open_next(conn: Conn) -> None:
            queue = queues[id(conn)]
            if not queue:
                return
            session = queue.popleft()
            self.traces_started += 1
            session.open_sent = self._send(conn, {
                "op": "open", "protocol": 2, "config": self.config,
                "query": to_sql(session.plan.tree)},
                lambda reply: on_open(session, reply))

        def on_open(session: Session, reply) -> None:
            body = self._ok(reply, "open")
            if body is None or body.get("protocol") != 2:
                if body is not None:
                    self._fail(f"open granted protocol {body.get('protocol')}")
                open_next(session.conn)
                return
            session.id = body["session"]
            self._send(session.conn, {"op": "subscribe", "session": session.id},
                       lambda r: on_subscribe(session, r))

        def on_subscribe(session: Session, reply) -> None:
            session.reply = reply
            if self.measuring:
                self.passes[-1].first_frame_ms.append(
                    (reply.at - session.open_sent) * 1e3)
                self.first_frame_bytes.append(reply.size)
            open_next(session.conn)

        for conn in self.conns:
            open_next(conn)
        self._drain()
        for session in sessions:
            if session.reply is None:
                continue
            body = self._ok(session.reply, "subscribe")
            if body is not None and self._apply(session, body, "subscribe"):
                self._check(session, "first frame")

    def _round(self, sessions: list[Session]) -> None:
        """One closed-loop round: a burst of ticks per session, then each
        session's settled delta."""
        w = self.workload

        def on_ack(reply) -> None:
            body = self._ok(reply, "event")
            if body is not None and body.get("status") not in ("queued", "coalesced"):
                self._fail(f"event was {body.get('status')}")
            if self.measuring:
                self.event_ack_ms.append(reply.rtt_ms)

        def on_delta(session: Session, reply) -> None:
            session.reply = reply

        started = None
        for session in sessions:
            for k in range(w.ticks_per_update):
                sent = self._send(session.conn, {
                    "op": "event", "session": session.id,
                    "event": session.plan.next_tick()}, on_ack)
                if k == 0:
                    session.first_tick = sent
                started = started or sent
                self.traces_started += 1
        for session in sessions:
            session.reply = None
            self._send(session.conn, {"op": "delta", "session": session.id,
                                      "wait": True},
                       lambda r, s=session: on_delta(s, r))
        self._drain()
        if self.measuring:
            self.passes[-1].round_s += max(s.reply.at for s in sessions) - started
        for session in sessions:
            reply = session.reply
            if self.measuring:
                latency_ms = (reply.at - session.first_tick) * 1e3
                self.update_ms.append(latency_ms)
                self.passes[-1].update_ms.append(latency_ms)
                self.update_bytes.append(reply.size)
            body = self._ok(reply, "delta")
            if body is not None and self._apply(session, body, "delta"):
                self._check(session, "settled frame")

    def _finish(self, sessions: list[Session]) -> None:
        """Resync every session, compare with the delta-rebuilt state, close."""
        for session in sessions:
            if session.id is None:
                continue
            session.reply = None
            if session.state is not None:
                self._send(session.conn, {"op": "resync", "session": session.id},
                           lambda r, s=session: setattr(s, "reply", r))
            self._send(session.conn, {"op": "close", "session": session.id},
                       lambda r: self._ok(r, "close"))
        self._drain()
        for session in sessions:
            if session.reply is None:
                continue
            body = self._ok(session.reply, "resync")
            if body is None:
                continue
            try:
                fresh = apply(None, body)
            except (FrameError, KeyError, TypeError) as exc:
                self._fail(f"resync of {session.id}: {exc}")
                continue
            if not same_state(session.state, fresh):
                self._fail(f"delta-rebuilt state of {session.id} != resync")

    # ------------------------------------------------------------ #
    # Traced run
    # ------------------------------------------------------------ #
    def _metrics(self) -> dict:
        box = {}
        self._send(self.conns[0], {"op": "metrics"},
                   lambda r: box.update(self._ok(r, "metrics") or {}),
                   counted=False)
        self._drain()
        self.metrics = box.get("metrics", {})
        return CounterDelta.read(self.metrics)

    def _pull_traces(self) -> None:
        """Fetch every trace started since the last pull.

        ``limit`` bounds the reply by the traces that can have started
        (one per tick or open at most); ids are checked for gaps at the
        end, so a trace the ring dropped cannot go unnoticed.  A trace
        seen again replaces its earlier copy, which may predate its
        encode and send spans.
        """
        box = {}
        self._send(self.conns[0], {"op": "trace", "include_recent": True,
                                   "limit": self.traces_started + 8},
                   lambda r: box.update(self._ok(r, "trace") or {}),
                   counted=False)
        self._drain()
        self.traces_started = 0
        for trace in box.get("traces", ()):
            self.traces[trace["trace_id"]] = trace

    # ------------------------------------------------------------ #
    def end_to_end(self, setups: list[float], peak_mb: float) -> dict:
        """Timings from the quietest pass (each metric on its own), sizes
        and memory over the whole run.  The tail comes from the quietest
        pass too when every pass has enough samples for one, else from
        the whole run."""
        passes = self.passes
        tails = [p.update_ms for p in passes]
        if min(map(len, tails)) < MIN_TAIL_SAMPLES:
            tails = [self.update_ms]
        return {
            "setup_s": median(setups),
            "first_frame_ms": min(median(p.first_frame_ms) for p in passes),
            "first_frame_bytes": median(self.first_frame_bytes),
            "update_p50_ms": min(median(p.update_ms) for p in passes),
            "update_p90_ms": min(tail(u, 0.9) for u in tails),
            "updates_per_s": max(len(p.update_ms) / p.round_s for p in passes),
            "update_bytes_p50": median(self.update_bytes),
            "server_cpu_ms_per_update": min(
                p.cpu_s * 1e3 / len(p.update_ms) for p in passes),
            "server_peak_rss_mb": peak_mb,
        }

    def per_layer(self, prepare_ms: list[float]) -> dict:
        ids = sorted(self.traces)
        if ids != list(range(1, len(ids) + 1)):
            self._fail("the trace ring dropped traces before they were pulled")
        steady = [t for i, t in self.traces.items()
                  if i > self.steady_trace_id and t["name"] == "event"]
        backend = self.metrics.get("backend") or {}
        return layer_report(
            update_traces=steady, all_traces=list(self.traces.values()),
            delta=self.counters, updates=len(self.update_ms),
            event_acks=self.event_ack_ms, prepare_ms=prepare_ms,
            published_bytes=int(backend.get("published_bytes", 0)),
            fallbacks=int(backend.get("fallbacks", 0)),
            update_p50_ms=median(self.update_ms))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> bool:
    """Run one workload and print its report; True when all passed."""
    workload = WORKLOADS[name]
    oracle = Oracle(make_columns(workload.rows, seed))
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = Server(name, seed, trace)
        setups.append(server.setup_s)
        server.stop()
    server = Server(name, seed, trace)
    setups.append(server.setup_s)
    bench = None
    steady_s = peak_mb = steal = 0.0
    try:
        bench = Bench(workload, seed, server, oracle, bool(trace))
        if workload.warmup_updates:
            bench.run_pass(workload.warmup_updates)
        bench.start_measuring()
        started = time.perf_counter()
        steal0, total0 = steal_ticks()
        # A fixed number of passes, not as many as fit in ``seconds``: a
        # faster run would open more sessions, and the server's memory
        # and caches grow with them.
        for _ in range(workload.passes(seconds)):
            bench.run_pass()
        peak_mb = peak_rss_mb(server.pid)
        steady_s = time.perf_counter() - started
        steal1, total1 = steal_ticks()
        steal = (steal1 - steal0) / max(1, total1 - total0)
    except WireError as exc:
        if bench is None:
            raise
        bench._fail(f"wire: {exc}")
    finally:
        if bench is not None:
            bench.close()
        report = server.stop()
    bench.check_known_faults()
    # Metrics are reported whether or not the checks passed.
    metrics = {}
    try:
        if trace:
            values = bench.per_layer(report.get("prepare_ms", []))
            units = LAYER_UNITS
        else:
            values = bench.end_to_end(setups, peak_mb)
            units = END_TO_END_UNITS
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    except (ValueError, ZeroDivisionError) as exc:  # too few samples
        bench._fail(f"metrics: {type(exc).__name__}: {exc}")
    correct = bench.correct
    print(f"# {name} seed={seed} trace={trace}: "
          f"{len(bench.update_ms)} update samples and "
          f"{sum(len(p.first_frame_ms) for p in bench.passes)} first-frame "
          f"samples in {len(bench.passes)} passes, "
          f"{len(setups)} set-up samples, steady phase {steady_s:.1f} s, "
          f"machine CPU steal {steal:.1%}")
    if bench.known_faults:
        print(f"# {bench.known_faults} frames failed the known check: {HIDDEN_ANSWERS}")
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    for key, entry in metrics.items():
        print(f"# {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}), flush=True)
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, args.trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions shared by the load generator and the server.

Everything a run sends is derived from ``--seed``: the table columns, each
session's query constants and every slider tick.  The server process
builds its table from the same generator, so the program under test
receives only the generated tables and the requests.

A query is kept client-side as a small tree of plain dictionaries (the
model the oracle evaluates and the events mutate) and rendered to the
service's SQL-like text for ``open``.  Constants are rounded to four
decimals before use, so the text the parser reads and the floats the
oracle compares are the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stats import MIN_TAIL_SAMPLES

TABLE = "Events"
#: Shards are sized at a constant number of rows, as a deployment would
#: configure them (and as ``benchmarks/bench_event_latency.py`` sweeps).
ROWS_PER_SHARD = 15_625
MAX_SHARDS = 256


@dataclass(frozen=True)
class Workload:
    """One traffic mix: table size, session shape and event kind."""

    name: str
    rows: int
    #: Concurrent sessions per pass, spread over ``connections`` sockets.
    sessions: int
    connections: int
    #: Updates (settled delta pulls) per session per pass.
    updates_per_pass: int
    #: Ticks sent per update; more than one coalesces server-side.
    ticks_per_update: int
    #: ``None`` keeps the paper's default quantile reduction.
    percentage: float | None
    #: ``None`` keeps the deployment default backend.
    backend: str | None
    #: ``drag``: micro-moves of one range's upper edge (the patch path);
    #: ``global``: weight, threshold and range moves (the O(n) paths).
    events: str
    #: Updates of the one unmeasured pass before the steady phase (0: no
    #: warm-up pass).  Fixed, as every pass is, so every run's failed
    #: share is the same.
    warmup_updates: int = 0
    #: Measured passes per second of ``--seconds``.  A run measures
    #: :meth:`passes` passes: a count set by ``--seconds`` alone, so every
    #: run of a workload does the same work however fast it goes.  Each
    #: timing is read from the run's quietest pass (see ``run.py``).
    pass_rate: float = 0.3

    def passes(self, seconds: float) -> int:
        """Measured passes of a run: at least enough for one tail."""
        per_pass = self.updates_per_pass * self.sessions
        return max(-(-MIN_TAIL_SAMPLES // per_pass),
                   round(seconds * self.pass_rate))

    @property
    def session_config(self) -> dict:
        """The ``config`` of every ``open`` (and of the server's warm-up)."""
        return {} if self.percentage is None else {"percentage": self.percentage}

    @property
    def shards(self) -> int:
        return max(1, min(MAX_SHARDS, self.rows // ROWS_PER_SHARD))


WORKLOADS = {
    w.name: w for w in (
        Workload("drag-4m", rows=4_000_000, sessions=1, connections=1,
                 updates_per_pass=100, ticks_per_update=1,
                 percentage=600 / 4_000_000, backend=None, events="drag",
                 warmup_updates=25, pass_rate=0.4),
        Workload("fanout-40k", rows=40_000, sessions=32, connections=2,
                 updates_per_pass=4, ticks_per_update=4,
                 percentage=0.05, backend=None, events="drag",
                 warmup_updates=1, pass_rate=0.3),
        # 1M rows under the quantile reduction on the process backend:
        # the O(n) paths and the backend's pool, publication and worker
        # kernels in one workload.  No warm-up pass: its O(n) updates
        # would add ~10 s to the longest run, and the server's own warm-up
        # query has already started the pools and filled the column
        # caches.  Its passes have 20 updates, so its tail is read over
        # the whole run (see ``run.py``).
        Workload("explore-1m", rows=1_000_000, sessions=1, connections=1,
                 updates_per_pass=20, ticks_per_update=1,
                 percentage=None, backend="process", events="global",
                 pass_rate=0.5),
    )
}


def make_columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    """The table: ``t`` follows row order, ``a`` tracks ``t``, ``b`` is noise.

    ``t`` sorted uniform on [0, 1000] gives row-range shards the locality
    real time-series data has, so a range slider on ``t`` dirties few
    shards.
    """
    rng = np.random.default_rng([seed, rows])
    t = np.sort(rng.uniform(0.0, 1000.0, rows))
    a = t * 0.1 + rng.normal(0.0, 5.0, rows)
    b = rng.uniform(0.0, 100.0, rows)
    return {"t": t, "a": a, "b": b}


def _r(value: float) -> float:
    return round(float(value), 4)


def range_leaf(attr: str, low: float, high: float) -> dict:
    return {"kind": "range", "attr": attr, "low": _r(low), "high": _r(high),
            "weight": 1.0}


def cmp_leaf(attr: str, op: str, value: float) -> dict:
    return {"kind": "cmp", "attr": attr, "op": op, "value": _r(value),
            "weight": 1.0}


def to_sql(tree: dict) -> str:
    return f"SELECT * FROM {TABLE} WHERE {_expr(tree, top=True)}"


def _num(value: float) -> str:
    return f"{value:.4f}"


def _expr(node: dict, top: bool = False) -> str:
    kind = node["kind"]
    if kind in ("and", "or"):
        text = f" {kind.upper()} ".join(_expr(c) for c in node["children"])
        return text if top else f"({text})"
    if kind == "range":
        text = f"{node['attr']} BETWEEN {_num(node['low'])} AND {_num(node['high'])}"
    else:
        text = f"{node['attr']} {node['op']} {_num(node['value'])}"
    if node["weight"] != 1.0:
        text += f" WEIGHT {_num(node['weight'])}"
    return text


def node_at(tree: dict, path: list[int]) -> dict:
    node = tree
    for index in path:
        node = node["children"][index]
    return node


def leaf_count(tree: dict) -> int:
    if tree["kind"] in ("and", "or"):
        return sum(leaf_count(c) for c in tree["children"])
    return 1


def apply_event(tree: dict, event: dict) -> None:
    """Mirror one wire event on the client's query model."""
    node = node_at(tree, event["path"])
    if event["type"] == "range":
        node["low"], node["high"] = event["low"], event["high"]
    elif event["type"] == "threshold":
        node["value"] = event["value"]
    elif event["type"] == "weight":
        node["weight"] = event["weight"]
    else:
        raise ValueError(f"unsupported event type {event['type']!r}")


class SessionPlan:
    """The query and the tick stream of one session."""

    def __init__(self, workload: Workload, tree: dict, rng: np.random.Generator):
        self.workload = workload
        self.tree = tree
        self._rng = rng
        self._tick = 0
        #: Per drawn value (weight, threshold, range low, range width):
        #: the seeded order of its strata, one per move of its kind in a
        #: pass, and how many it has drawn so far.
        kinds = [_global_kind(t) for t in range(1, workload.updates_per_pass + 1)]
        self._strata = {v: rng.permutation(max(1, kinds.count(min(v, 2))))
                        for v in range(4)}
        self._made = dict.fromkeys(range(4), 0)

    def next_tick(self) -> dict:
        """The next event; the model is updated to match."""
        self._tick += 1
        if self.workload.events == "drag":
            event = self._drag_tick()
        else:
            event = self._global_tick()
        apply_event(self.tree, event)
        return event

    def _drag_tick(self) -> dict:
        # An interior micro-move of the range's upper edge: each tick
        # sweeps a fixed number of rows out of the range, near the top of
        # the distribution (the slider column is uniform on [0, 1000]).
        leaf = node_at(self.tree, [0])
        step = 1000.0 * 250 / self.workload.rows
        return {"type": "range", "path": [0], "low": leaf["low"],
                "high": _r(leaf["high"] - step)}

    def _draw(self, value: int) -> float:
        """The next draw of ``value``, a point in [0, 1).  The k-th draw in
        a pass falls in the k-th of equal slices, taken in a seeded order,
        so every pass spreads its moves evenly over their ranges: runs
        differ in the order and jitter of their moves, not in how much
        work those ask for."""
        strata = self._strata[value]
        slot = int(strata[self._made[value] % len(strata)])
        self._made[value] += 1
        return (slot + self._rng.uniform()) / len(strata)

    def _global_tick(self) -> dict:
        kind = _global_kind(self._tick)
        leaf = self._made[0] % 3  # weight moves take the leaves in turn
        u = self._draw(kind)
        if kind == 0:
            return {"type": "weight", "path": [leaf],
                    "weight": _r(0.3 + 0.7 * u)}
        if kind == 1:
            return {"type": "threshold", "path": [1],
                    "value": _r(38.0 + 8.0 * u)}
        # A range move that shifts the normalization bounds of ``t``.
        low = 300.0 + 100.0 * u
        return {"type": "range", "path": [0], "low": _r(low),
                "high": _r(low + 150.0 + 100.0 * self._draw(3))}


def _global_kind(tick: int) -> int:
    """Range, weight, threshold, range, ... (2, 0, 1, 2, ...): six
    threshold moves in a pass of twenty.  A threshold move often leaves
    the display as it was; its tiny deltas must stay well under half of
    all, or the median delta size would jump between them and the full
    ones."""
    return (tick + 1) % 3


def session_plan(workload: Workload, seed: int, serial: int) -> SessionPlan:
    """Session ``serial`` of a run: a query no earlier session prepared.

    Every constant carries the serial, so no two sessions of a run (nor
    the server's warm-up query, serial -1) share a predicate and every
    open pays a cold plan.
    """
    rng = np.random.default_rng([seed, serial + 1, 17])
    eps = 1e-3 * (serial + 1)
    if workload.events == "drag":
        top = 1000.0 * (1.0 - 5_000 / workload.rows)
        tree = {"kind": "and", "children": [
            range_leaf("t", 5.0 + eps, top),
            {"kind": "or", "children": [
                cmp_leaf("a", ">", 30.0 + eps + rng.uniform(0.0, 1e-4)),
                cmp_leaf("b", "<", 70.0 - eps - rng.uniform(0.0, 1e-4)),
            ]},
        ]}
    else:
        tree = {"kind": "and", "children": [
            range_leaf("t", 350.0 + eps, 550.0 + rng.uniform(0.0, 1e-2)),
            cmp_leaf("a", ">", 42.0 + eps),
            cmp_leaf("b", "<", 30.0 - eps - rng.uniform(0.0, 1e-4)),
        ]}
    return SessionPlan(workload, tree, rng)


def warmup_tree(workload: Workload, seed: int) -> dict:
    """The server's own warm-up query (never sent by the client)."""
    return session_plan(workload, seed, -1).tree

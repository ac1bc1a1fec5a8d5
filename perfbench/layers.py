"""Turn recorded spans into the per-layer metrics.

Every metric is reported per *unit of work*: one cold pass for the batch
workloads, one request for ``serve_hot``.  Self times are summed per
span name within each unit and averaged over units, so for each
workload

    sum of layer self times + trace.unattributed_ms == trace.wall_ms

holds by construction, and the remainder is reported, not hidden.  For
a pass the unattributed time is the self time of the root ``pass``
span (code between the wrapped entry points).  For a serve request the
wall is its latency from the scheduled send; the layers are generator
lateness, parse, queue wait, every layer inside the batch that carried
it, and the response; the rest (pipes, thread hand-offs) is
unattributed.
"""

from __future__ import annotations

import json
from collections import defaultdict

from common import mean, percentile

# span names whose calls/items are reported
CALLS = ("kernels.catalog.build_kernel", "compilers.codegen.compile_loop",
         "engine.batch.schedule_batch", "engine.scheduler.schedule_on",
         "ecm.model.predict_compiled")
ITEMS = {"engine.batch.schedule_batch": "engine.batch.schedule_batch.lanes",
         "ecm.batch.predict_batch": "ecm.batch.predict_batch.items"}

# span names that only frame a unit (their self time is the remainder)
ROOTS = ("pass", "serve.server.execute")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _ancestors(spans: list[list]) -> dict[int, int]:
    """span id -> id of its root span on the same thread."""
    parent = {s[7]: s[3] for s in spans}
    root: dict[int, int] = {}
    for sid in parent:
        chain = [sid]
        while parent.get(chain[-1], -1) != -1 and chain[-1] not in root:
            chain.append(parent[chain[-1]])
        top = root.get(chain[-1], chain[-1])
        for c in chain:
            root[c] = top
    return root


def _per_root(spans: list[list]) -> dict[int, dict]:
    """root span id -> {"self": {name: s}, "calls": {name: n},
    "items": {name: n}} over the root's whole subtree."""
    root_of = _ancestors(spans)
    out: dict[int, dict] = defaultdict(lambda: {
        "self": defaultdict(float), "calls": defaultdict(int),
        "items": defaultdict(int)})
    for name, _t0, _t1, _parent, self_s, _rid, items, sid in spans:
        agg = out[root_of[sid]]
        agg["self"][name] += self_s
        agg["calls"][name] += 1
        agg["items"][name] += items
    return out


def _ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    total = hits + after["misses"] - before["misses"]
    return hits / total if total else 0.0


def _layer_metrics(unit_self: dict, unit_calls: dict, unit_items: dict,
                   units: int) -> dict[str, float]:
    """Per-unit means of self ms, calls and items for every span name."""
    out: dict[str, float] = {}
    for name, secs in unit_self.items():
        if name not in ROOTS:
            out[f"{name}.self_ms"] = secs * 1e3 / units
    for name in CALLS:
        out[f"{name}.calls"] = unit_calls.get(name, 0) / units
    for name, metric in ITEMS.items():
        out[metric] = unit_items.get(name, 0) / units
    return out


def _shard(marks: list[dict]) -> dict[str, float]:
    plans = [m for m in marks if m["kind"] == "shard"]
    return {"engine.shard.workers": mean([p["workers"] for p in plans]),
            "engine.shard.jobs": mean([p["jobs"] for p in plans])}


def pass_metrics(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of traced cold passes (one trace per pass),
    plus the reconciliation of layer times against the pass wall."""
    unit_self: dict[str, float] = defaultdict(float)
    unit_calls: dict[str, int] = defaultdict(int)
    unit_items: dict[str, int] = defaultdict(int)
    wall = unattributed = 0.0
    marks: list[dict] = []
    compile_ratio, sched_ratio = [], []
    for trace in traces:
        spans = trace["spans"]
        root = next(s for s in spans if s[0] == "pass")
        agg = _per_root(spans)[root[7]]
        for name, secs in agg["self"].items():
            unit_self[name] += secs
        for name, n in agg["calls"].items():
            unit_calls[name] += n
        for name, n in agg["items"].items():
            unit_items[name] += n
        wall += root[2] - root[1]
        unattributed += root[4]
        marks.extend(trace["marks"])
        cache = next(m for m in trace["marks"] if m["kind"] == "cache")
        zero = {"hits": 0.0, "misses": 0.0}
        compile_ratio.append(_ratio(zero, cache["compile"]))
        sched_ratio.append(_ratio(zero, cache["schedule"]))
    n = len(traces)
    out = _layer_metrics(unit_self, unit_calls, unit_items, n)
    out.update(_shard(marks))
    out["compilers.cache.hit_ratio"] = mean(compile_ratio)
    out["engine.cache.hit_ratio"] = mean(sched_ratio)
    out["trace.wall_ms"] = wall * 1e3 / n
    out["trace.unattributed_ms"] = unattributed * 1e3 / n
    recon = {name: secs * 1e3 / n for name, secs in unit_self.items()
             if name != "pass"}
    return out, _reconciliation(out, recon)


def _reconciliation(out: dict, layers: dict[str, float]) -> dict:
    """Per-unit layer times that, with the remainder, sum to the wall."""
    total = sum(layers.values()) + out["trace.unattributed_ms"]
    return {"wall_ms": out["trace.wall_ms"],
            "unattributed_ms": out["trace.unattributed_ms"],
            "layers_ms": dict(sorted(layers.items())),
            "sum_ms": total}


def serve_metrics(trace: dict, requests: dict, window: tuple[float, float],
                  ) -> tuple[dict, dict]:
    """Per-request layer metrics for the traced serve phase, plus the
    reconciliation of layer times against the mean request latency.

    *requests* maps request id -> (scheduled, sent, received) monotonic
    times; *window* is the phase's (first scheduled send, last receive).
    """
    spans, marks = trace["spans"], trace["marks"]
    per_root = _per_root(spans)
    batch_of: dict = {}
    for m in marks:
        if m["kind"] == "batch":
            for rid in m["rids"]:
                batch_of[rid] = m["span"]
    by_rid: dict = defaultdict(lambda: defaultdict(float))
    for name, t0, t1, _parent, _self, rid, _items, _sid in spans:
        if rid in requests and name.startswith(("serve.protocol",
                                                 "serve.queue")):
            by_rid[rid][name] += t1 - t0

    unit_self: dict[str, float] = defaultdict(float)
    unit_calls: dict[str, int] = defaultdict(int)
    unit_items: dict[str, int] = defaultdict(int)
    waits, late, unattributed, latency = [], [], [], []
    batches = set()
    for rid, (sched, sent, recv) in requests.items():
        attributed = (sent - sched) + sum(by_rid[rid].values())
        agg = per_root.get(batch_of.get(rid))
        if agg is not None:
            batches.add(batch_of[rid])
            for name, secs in agg["self"].items():
                unit_self[name] += secs
                attributed += secs
            for name, n in agg["calls"].items():
                unit_calls[name] += n
            for name, n in agg["items"].items():
                unit_items[name] += n
        waits.append(by_rid[rid]["serve.queue.wait"] * 1e3)
        late.append((sent - sched) * 1e3)
        latency.append(recv - sched)
        unattributed.append((recv - sched) - attributed)
    n = len(requests)
    out = _layer_metrics(unit_self, unit_calls, unit_items, n)
    # queue, parse and respond are per-request spans, not batch layers
    out["serve.server.execute.self_ms"] = (
        unit_self["serve.server.execute"] * 1e3 / n)
    out["serve.queue.wait_ms_p50"] = percentile(waits, 50)
    out["serve.queue.wait_ms_p99"] = percentile(waits, 99)
    out["serve.protocol.parse_us"] = mean(
        [by_rid[r]["serve.protocol.parse"] * 1e6 for r in requests])
    out["serve.protocol.respond_us"] = mean(
        [by_rid[r]["serve.protocol.respond"] * 1e6 for r in requests])
    execs = [s for s in spans if s[0] == "serve.server.execute"
             and window[0] <= s[1] <= window[1]]
    out["serve.queue.batch_size_mean"] = mean([s[6] for s in execs])
    out["serve.server.busy_frac"] = (sum(s[2] - s[1] for s in execs)
                                     / (window[1] - window[0]))
    out.update(_shard([m for m in marks
                       if window[0] <= m["t"] <= window[1]]))
    # the client brackets its timed phases with two stats requests
    caches = [m for m in marks if m["kind"] == "cache"]
    if len(caches) >= 2:
        out["compilers.cache.hit_ratio"] = _ratio(caches[0]["compile"],
                                                  caches[-1]["compile"])
        out["engine.cache.hit_ratio"] = _ratio(caches[0]["schedule"],
                                               caches[-1]["schedule"])
    out["trace.wall_ms"] = mean(latency) * 1e3
    out["trace.unattributed_ms"] = mean(unattributed) * 1e3
    out["load.gen_late_ms_p99"] = percentile(late, 99)
    recon = {name: secs * 1e3 / n for name, secs in unit_self.items()}
    for rid in requests:
        for name, secs in by_rid[rid].items():
            recon[name] = recon.get(name, 0.0) + secs * 1e3 / n
    recon["load.gen_late"] = mean(late)
    return out, _reconciliation(out, recon)

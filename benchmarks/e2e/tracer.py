"""Outside-in span tracer and the per-layer ledger derived from it.

The tracer lives with the benchmark, not in ``src/``: it replaces public
entry points of :mod:`repro` *at run time* with wrappers that record
in-memory spans ``{name, start, end, parent}``.  Every hook point is a
dotted name resolved when :meth:`Tracer.install` runs; a name that no
longer exists is listed in :attr:`Tracer.missing`, its metrics read
``None`` and one warning line is printed — the benchmark never crashes
because the program was refactored.

Self time
---------
A span's *self time* is its duration minus the part of that interval
its child spans cover.  Spans nest strictly (one thread, synchronous
calls), so the tracer keeps a stack: when a span ends, its duration is
added to its parent's ``child time``, and ``duration - child time`` to
its own name's self-time total.  Aggregation is online (per span name:
calls, total seconds, self seconds); the first :data:`KEEP_SPANS` raw
spans are kept verbatim as a sample for ``trace-<workload>.json``.

Timer callbacks
---------------
Work the kernel dispatches later is attributed to the module that owns
the callback.  Wrappers on the two timer queues' ``call_at``
(``Simulator`` and ``TimerWheel``; ``schedule`` delegates to it on
both) replace the callback they are handed with a span named
``cb:<module>.<function>`` (module relative to ``repro``), so every
``cb:`` span is one dispatched kernel event.  ``Node.schedule`` and
``Node.periodic`` hide the protocol's callback behind the node's crash
guard / the periodic task's tick, so their wrappers label the inner
callback ``task:<module>.<function>``, e.g.
``task:core.stack.membership._heartbeat_tick`` runs inside
``cb:sim.kernel._tick``.  The medium's optional hook attributes
(``on_transmit`` ... ``extra_loss``) become ``hook:<module>.<function>``
spans the first time a medium is seen at ``broadcast``.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Raw spans kept verbatim (the rest are aggregated only).
KEEP_SPANS = 20000
#: Broadcast messages sampled for the ``rt.codec`` baseline.
KEEP_MESSAGES = 2000

_MEDIUM_HOOKS = ("on_transmit", "on_receive", "on_drop", "on_tx_window",
                 "on_rx_window", "extra_loss")
_MEDIUM_COUNTERS = ("frames_sent", "frames_delivered", "frames_collided",
                    "frames_lost_random", "frames_lost_fault")

#: Plain span hooks: (span name, dotted target).
SPAN_HOOKS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel.run", "repro.sim.kernel.Simulator.run"),
    ("sim.kernel.wheel_service", "repro.sim.kernel.TimerWheel._service"),
    ("sim.batch.audible", "repro.sim.batch.LegTable.audible"),
    ("sim.batch.busy", "repro.sim.batch.TxLog.busy"),
    ("sim.batch.corrupt_verdicts", "repro.sim.batch.TxLog.corrupt_verdicts"),
    ("sim.batch.txlog_add", "repro.sim.batch.TxLog.add"),
    ("sim.space.query_radius", "repro.sim.space.SpatialGrid.query_radius"),
    ("sim.space.insert", "repro.sim.space.SpatialGrid.insert"),
    ("mobility.position", "repro.mobility.base.MobilityModel.position"),
    ("mobility.map_build",
     "repro.harness.scenario.CityGridSpec.street_map"),
    ("mobility.map_build",
     "repro.harness.scenario.CitySectionSpec.street_map"),
    ("net.node.receive", "repro.net.node.Node.receive"),
    ("net.node.send", "repro.net.node.Node.send"),
    ("net.node.start", "repro.net.node.Node.start"),
    ("core.stack.membership.on_heartbeat",
     "repro.core.stack.membership.HeartbeatMembership.on_heartbeat"),
    ("core.stack.membership.on_heartbeat",
     "repro.core.stack.membership.TTLMembership.on_heartbeat"),
    ("core.stack.membership.recompute_delays",
     "repro.core.stack.membership.HeartbeatMembership.recompute_delays"),
    ("core.stack.forwarding.retrieve",
     "repro.core.stack.forwarding.BackoffForwarding.retrieve"),
    ("core.stack.forwarding.send_batch",
     "repro.core.stack.forwarding.BackoffForwarding.send_batch"),
    ("core.stack.forwarding.send_batch",
     "repro.core.stack.forwarding.PeriodicFloodForwarding.flood_now"),
    ("core.stack.forwarding.send_batch",
     "repro.core.stack.forwarding.GossipForwarding.broadcast"),
    ("core.stack.delivery.deliver_once",
     "repro.core.stack.delivery.DeliveryLayer.deliver_once"),
    ("core.stack.delivery.deliver_once",
     "repro.core.stack.delivery.DeliveryLayer.hand_off"),
    ("metrics.summary", "repro.harness.scenario.ScenarioResult.summary"),
    ("harness.scenario.build_world", "repro.harness.scenario.build_world"),
    ("harness.scenario.build_world", "repro.harness.build_world"),
    ("harness.cache.get", "repro.harness.cache.ResultCache.get"),
    ("harness.cache.put", "repro.harness.cache.ResultCache.put"),
    ("harness.cache.digest", "repro.harness.cache.config_digest"),
    ("harness.reporting.format", "repro.harness.cli.format_experiment"),
    ("harness.reporting.to_csv", "repro.harness.cli.to_csv"),
    ("harness.cli.main", "repro.harness.cli.main"),
    ("study.analysis", "repro.study.analysis.pivot_report"),
    ("study.analysis", "repro.study.analysis.delta_report"),
    ("study.analysis", "repro.study.analysis.pareto_frontier"),
    ("study.analysis", "repro.study.analysis.frontier_report"),
)

#: Entry points whose third positional argument is a callback to label
#: by owner: (dotted target, label prefix).  The ``cb`` ones are the
#: timer queues themselves, and arming them is a span of its own.
CALLBACK_HOOKS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel.Simulator.call_at", "cb"),
    ("repro.sim.kernel.TimerWheel.call_at", "cb"),
    ("repro.net.node.Node.schedule", "task"),
    ("repro.net.node.Node.periodic", "task"),
)

# Hooks with bespoke before/after behaviour, installed by name below.
# ``run_scenario`` is imported by name into the package and the parallel
# engine, so each of those bindings is a hook point of its own.
_BROADCAST = "repro.net.medium.WirelessMedium.broadcast"
_RUN_SCENARIO = ("repro.harness.scenario.run_scenario",
                 "repro.harness.run_scenario",
                 "repro.harness.parallel.run_scenario")
_RUN_CONFIGS = "repro.harness.parallel.ParallelRunner.run_configs"
_EXPAND = "repro.study.engine.expand"


def _resolve(dotted: str):
    """``(owner, attribute name)`` for a dotted target, or ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        target = getattr(owner, parts[-1], None)
        return (owner, parts[-1]) if callable(target) else None
    return None


def _owner_label(callback) -> str:
    """``<module relative to repro>.<function name>`` of a callback."""
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)            # functools.partial
    module = getattr(func, "__module__", None)
    name = getattr(func, "__name__", None)
    if module is None or name is None:            # callable instance
        module, name = type(callback).__module__, type(callback).__name__
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}.{name}"


class Tracer:
    """In-memory span recorder over run-time-patched entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: Raw span sample: ``[name id, start, end, parent index]``.
        self.spans: List[list] = []
        self._stack: List[list] = []     # [child seconds, span index]
        self.missing: List[str] = []
        self.counters: Dict[str, float] = {}
        self.messages: list = []         # sampled broadcast messages
        self._media: Dict[int, object] = {}
        self._labels: Dict[tuple, str] = {}
        #: Seconds covered by top-level spans (the traced region).
        self.root_s = 0.0
        self._origin = time.perf_counter()

    # -- span machinery -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` as a span named ``name``.  ``before(*args)`` runs ahead
        of the span and ``after(result, *args)`` behind it, both outside
        the timed interval."""
        nid = self._id(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            index = -1
            if len(spans) < KEEP_SPANS:
                index = len(spans)
                spans.append([nid, 0.0, 0.0,
                              stack[-1][1] if stack else -1])
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(result, *args)
            return result

        traced._e2e_traced = True
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` once as a span (for the benchmark's own
        phases: set-up, result pickling)."""
        return self.wrap(name, fn)(*args)

    def _wrap_callback(self, prefix: str, callback: Callable) -> Callable:
        if getattr(callback, "_e2e_traced", False):
            return callback
        key = (prefix, getattr(callback, "__func__", callback))
        try:
            name = self._labels.get(key)
        except TypeError:                # unhashable callable
            key, name = None, None
        if name is None:
            name = f"{prefix}:{_owner_label(callback)}"
            if key is not None:
                self._labels[key] = name
        return self.wrap(name, callback)

    # -- installation ---------------------------------------------------------

    def _patch(self, dotted: str, make: Callable[[Callable], Callable]
               ) -> None:
        found = _resolve(dotted)
        if found is None:
            self.missing.append(dotted)
            print(f"warning: trace hook {dotted} does not resolve; its "
                  f"metrics read null", file=sys.stderr)
            return
        owner, attr = found
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        """Patch every hook point (see the module docstring)."""
        for name, dotted in SPAN_HOOKS:
            self._patch(dotted, lambda fn, n=name: self.wrap(n, fn))
        for dotted, prefix in CALLBACK_HOOKS:
            self._patch(dotted, lambda fn, p=prefix:
                        self._callback_arg_wrapper(fn, p))
        self._patch(_BROADCAST, lambda fn: self.wrap(
            "net.medium.broadcast", fn, before=self._see_broadcast))
        for dotted in _RUN_SCENARIO:
            self._patch(dotted, lambda fn: self.wrap(
                "harness.scenario.run_scenario", fn, after=self._see_result))
        self._patch(_RUN_CONFIGS, lambda fn: self.wrap(
            "harness.parallel.run_configs", fn, after=self._see_batch))
        self._patch(_EXPAND, lambda fn: self.wrap(
            "study.expand", fn, after=self._see_cells))

    def _callback_arg_wrapper(self, fn: Callable, prefix: str) -> Callable:
        """Wrapper for ``fn(self, when, callback, *args)``."""
        wrap_callback = self._wrap_callback
        inner = self.wrap("sim.kernel.arm", fn) if prefix == "cb" else fn

        def arming(obj, when, callback, *args, **kwargs):
            return inner(obj, when, wrap_callback(prefix, callback),
                         *args, **kwargs)

        return arming

    # -- bespoke hooks --------------------------------------------------------

    def _see_broadcast(self, medium, *args) -> None:
        """Remember the medium, keep its hook attributes wrapped, and
        sample the message for the codec baseline."""
        self._media.setdefault(id(medium), medium)
        for attr in _MEDIUM_HOOKS:
            hook = getattr(medium, attr, None)
            if hook is not None and not getattr(hook, "_e2e_traced", False):
                setattr(medium, attr, self._wrap_callback("hook", hook))
        if args and len(self.messages) < KEEP_MESSAGES:
            self.messages.append(args[-1])

    def _see_result(self, result, *args) -> None:
        """Fold one ``ScenarioResult``'s public counters into the tally."""
        counters = self.counters
        for key, value in result.protocol_counters().as_dict().items():
            counters[f"protocol.{key}"] = \
                counters.get(f"protocol.{key}", 0) + value
        for key, value in (result.barrier_stats or {}).items():
            counters[f"shard.{key}"] = counters.get(f"shard.{key}", 0) + value

    def _see_cells(self, cells, *args) -> None:
        self.counters["cells"] = self.counters.get("cells", 0) + len(cells)

    def _see_batch(self, results, runner, *args) -> None:
        """Time the pickle round trip a worker pool pays per result (the
        traced pass runs with ``--jobs 1``, where no pool exists)."""
        import pickle

        def round_trip() -> int:
            size = 0
            for result in results:
                blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.loads(blob)
                size += len(blob)
            return size

        size = self.span("harness.parallel.result_pickle", round_trip)
        counters = self.counters
        counters["pickle_bytes"] = counters.get("pickle_bytes", 0) + size
        counters["executed"] = runner.stats.executed
        counters["cache_hits"] = runner.stats.cache_hits

    # -- read-out -------------------------------------------------------------

    def medium_counter(self, attr: str) -> Optional[int]:
        """Sum of a public frame counter over every medium seen."""
        if not self._media:
            return 0
        values = [getattr(m, attr, None) for m in self._media.values()]
        return None if any(v is None for v in values) else sum(values)

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}``."""
        return {name: {"calls": self.calls[i], "total_s": self.total_s[i],
                       "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)}

    def span_sample(self) -> List[dict]:
        """The raw span sample as ``{name, start, end, parent}`` records
        (times in seconds since the tracer was created)."""
        origin = self._origin
        return [{"name": self.names[nid], "start": start - origin,
                 "end": end - origin, "parent": parent}
                for nid, start, end, parent in self.spans]


# --------------------------------------------------------------------------
# The layer ledger: span table + public counters -> named metrics
# --------------------------------------------------------------------------

#: Every per-layer metric with its unit, in ``BENCHMARK.json`` order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
    ("sim.kernel.run_self_s", "s"), ("sim.kernel.wheel_service_self_s", "s"),
    ("sim.kernel.arm_self_s", "s"), ("sim.kernel.timers_armed", "count"),
    ("sim.kernel.events", "count"),
    ("sim.batch.audible_self_s", "s"), ("sim.batch.busy_self_s", "s"),
    ("sim.batch.corrupt_verdicts_self_s", "s"),
    ("sim.batch.txlog_add_self_s", "s"), ("sim.batch.calls", "count"),
    ("sim.space.query_radius_self_s", "s"),
    ("sim.space.query_radius_calls", "count"),
    ("sim.space.insert_self_s", "s"), ("sim.space.insert_calls", "count"),
    ("sim.shard.barriers", "count"), ("sim.shard.frames_exchanged", "count"),
    ("sim.shard.drain_s", "s"), ("sim.shard.merge_s", "s"),
    ("sim.shard.ingest_s", "s"), ("sim.shard.retime_s", "s"),
    ("sim.shard.barrier_share", "ratio"),
    ("mobility.position_self_s", "s"), ("mobility.position_calls", "count"),
    ("mobility.event_self_s", "s"), ("mobility.leg_events", "count"),
    ("mobility.reanchor_events", "count"), ("mobility.map_build_s", "s"),
    ("net.medium.broadcast_self_s", "s"), ("net.medium.deliver_self_s", "s"),
    ("net.medium.csma_retries", "count"), ("net.medium.frames_sent", "count"),
    ("net.medium.frames_delivered", "count"),
    ("net.medium.frames_collided", "count"),
    ("net.medium.frames_lost", "count"),
    ("net.medium.delivery_ratio", "ratio"),
    ("net.node.receive_self_s", "s"), ("net.node.receive_calls", "count"),
    ("net.node.send_self_s", "s"),
    ("core.stack.membership.on_heartbeat_self_s", "s"),
    ("core.stack.membership.on_heartbeat_calls", "count"),
    ("core.stack.membership.recompute_delays_self_s", "s"),
    ("core.stack.membership.beat_self_s", "s"),
    ("core.stack.membership.heartbeats_sent", "count"),
    ("core.stack.forwarding.retrieve_self_s", "s"),
    ("core.stack.forwarding.send_batch_self_s", "s"),
    ("core.stack.forwarding.timer_self_s", "s"),
    ("core.stack.forwarding.backoff_events", "count"),
    ("core.stack.forwarding.id_lists_sent", "count"),
    ("core.stack.forwarding.batches_sent", "count"),
    ("core.stack.forwarding.events_forwarded", "count"),
    ("core.stack.delivery.deliver_once_self_s", "s"),
    ("core.stack.delivery.delivered", "count"),
    ("core.stack.delivery.duplicates_dropped", "count"),
    ("core.stack.delivery.parasites_dropped", "count"),
    ("core.stack.delivery.useful_ratio", "ratio"),
    ("metrics.hook_self_s", "s"), ("metrics.summary_s", "s"),
    ("energy.hook_self_s", "s"), ("energy.sync_events", "count"),
    ("faults.event_self_s", "s"), ("faults.extra_loss_self_s", "s"),
    ("faults.events", "count"),
    ("harness.scenario.build_world_s", "s"),
    ("harness.scenario.start_nodes_s", "s"),
    ("harness.scenario.run_self_s", "s"),
    ("harness.parallel.run_configs_s", "s"),
    ("harness.parallel.result_pickle_s", "s"),
    ("harness.parallel.result_pickle_bytes", "bytes"),
    ("harness.parallel.executed", "count"),
    ("harness.cache.get_s", "s"), ("harness.cache.put_s", "s"),
    ("harness.cache.digest_s", "s"), ("harness.cache.hits", "count"),
    ("harness.cache.misses", "count"), ("harness.cache.entry_bytes", "bytes"),
    ("harness.reporting.format_s", "s"), ("harness.reporting.to_csv_s", "s"),
    ("harness.cli.import_s", "s"), ("harness.cli.list_s", "s"),
    ("harness.cli.main_self_s", "s"),
    ("study.expand_s", "s"), ("study.analysis_s", "s"),
    ("study.cells", "count"),
    ("rt.codec.encode_us", "us"), ("rt.codec.decode_us", "us"),
    ("rt.codec.bytes_per_msg", "bytes"),
)


def _hook_present(tracer: Tracer, span_name: str) -> bool:
    """False when *every* dotted target feeding ``span_name`` rotted."""
    targets = [d for n, d in SPAN_HOOKS if n == span_name]
    targets += {"net.medium.broadcast": [_BROADCAST],
                "harness.scenario.run_scenario": list(_RUN_SCENARIO),
                "harness.parallel.run_configs": [_RUN_CONFIGS],
                "study.expand": [_EXPAND],
                "sim.kernel.arm": [d for d, p in CALLBACK_HOOKS if p == "cb"],
                }.get(span_name, [])
    return not targets or any(d not in tracer.missing for d in targets)


def codec_baseline(messages: Sequence) -> Dict[str, Optional[float]]:
    """Encode/decode cost of the sampled broadcast messages through
    ``repro.rt.codec`` (no workload runs the rt layer; this is the
    baseline a later rt issue starts from)."""
    found = [_resolve(f"repro.rt.codec.{name}") for name in ("encode",
                                                             "decode")]
    if None in found or not messages:
        return {"rt.codec.encode_us": None, "rt.codec.decode_us": None,
                "rt.codec.bytes_per_msg": None}
    encode, decode = (getattr(owner, attr) for owner, attr in found)
    start = time.perf_counter()
    blobs = [encode(m) for m in messages]
    middle = time.perf_counter()
    for blob in blobs:
        decode(blob)
    end = time.perf_counter()
    n = len(messages)
    return {"rt.codec.encode_us": (middle - start) / n * 1e6,
            "rt.codec.decode_us": (end - middle) / n * 1e6,
            "rt.codec.bytes_per_msg": sum(map(len, blobs)) / n}


def layer_metrics(tracer: Tracer, traced_wall_s: float
                  ) -> Dict[str, Optional[float]]:
    """Derive every span- and counter-backed metric of
    :data:`LAYER_METRICS`.  ``trace.overhead_ratio``,
    ``harness.cli.import_s`` / ``.list_s`` and
    ``harness.cache.entry_bytes`` are measured by the driver (from child
    launches and the cache directory) and merged in there.

    ``traced_wall_s`` is the traced pass's ``wall_s`` (the same interval
    the untraced run times).  ``None`` marks a metric that was not
    measured: its hook point no longer resolves, or (``sim.shard.*``,
    ``rt.codec.*``) the run never entered the layer.
    ``trace.coverage`` is the share of the whole traced region
    (:attr:`Tracer.root_s`) attributed to a named ``*_s`` metric below,
    i.e. the self time of every span that feeds one.
    """
    table = tracer.table()
    counters = tracer.counters
    attributed = [0.0]

    def self_of(*span_names: str) -> Optional[float]:
        if not any(_hook_present(tracer, n) for n in span_names):
            return None
        value = sum(table[n]["self_s"] for n in span_names if n in table)
        attributed[0] += value
        return value

    def total_of(span_name: str) -> Optional[float]:
        # A total includes the span's children; only its own self time
        # counts towards coverage (the children report theirs).
        if not _hook_present(tracer, span_name):
            return None
        row = table.get(span_name, {"self_s": 0.0, "total_s": 0.0})
        attributed[0] += row["self_s"]
        return row["total_s"]

    def calls_of(*span_names: str) -> Optional[int]:
        if not any(_hook_present(tracer, n) for n in span_names):
            return None
        return sum(table[n]["calls"] for n in span_names if n in table)

    def owned(prefixes: Sequence[str], module: str,
              needles: Sequence[str]) -> List[str]:
        """Callback spans ``<prefix>:<module>...`` whose function name
        holds one of ``needles`` (every function when none is given)."""
        heads = tuple(f"{prefix}:{module}" for prefix in prefixes)
        return [n for n in table if n.startswith(heads) and
                (not needles or any(x in n.rsplit(".", 1)[-1]
                                    for x in needles))]

    def owned_self(module: str, *needles: str,
                   prefixes: Sequence[str] = ("cb", "task")) -> float:
        value = sum(table[n]["self_s"]
                    for n in owned(prefixes, module, needles))
        attributed[0] += value
        return value

    def owned_calls(module: str, *needles: str) -> int:
        return sum(table[n]["calls"]
                   for n in owned(("cb", "task"), module, needles))

    def protocol(key: str) -> float:
        return counters.get(f"protocol.{key}", 0)

    def ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    m: Dict[str, Optional[float]] = {}
    # sim.kernel: the dispatch loop, the wheel service (with the periodic
    # task ticks the kernel module owns), arming, and events dispatched
    # by either queue (one ``cb:`` span each, whichever timer path ran).
    m["sim.kernel.run_self_s"] = self_of("sim.kernel.run")
    wheel = self_of("sim.kernel.wheel_service")
    m["sim.kernel.wheel_service_self_s"] = None if wheel is None else \
        wheel + owned_self("sim.kernel.")
    m["sim.kernel.arm_self_s"] = self_of("sim.kernel.arm")
    m["sim.kernel.timers_armed"] = calls_of("sim.kernel.arm")
    m["sim.kernel.events"] = sum(row["calls"] for name, row in table.items()
                                 if name.startswith("cb:"))
    # sim.batch / sim.space
    for key in ("audible", "busy", "corrupt_verdicts", "txlog_add"):
        m[f"sim.batch.{key}_self_s"] = self_of(f"sim.batch.{key}")
    m["sim.batch.calls"] = calls_of(
        "sim.batch.audible", "sim.batch.busy", "sim.batch.corrupt_verdicts",
        "sim.batch.txlog_add")
    for key in ("query_radius", "insert"):
        m[f"sim.space.{key}_self_s"] = self_of(f"sim.space.{key}")
        m[f"sim.space.{key}_calls"] = calls_of(f"sim.space.{key}")
    # sim.shard: the engine's own public barrier ledger (absent unless a
    # sharded result was seen).
    sharded = "shard.barriers" in counters
    for key in ("barriers", "frames_exchanged", "drain_s", "merge_s",
                "ingest_s", "retime_s"):
        m[f"sim.shard.{key}"] = counters.get(f"shard.{key}", 0) \
            if sharded else None
    m["sim.shard.barrier_share"] = ratio(
        sum(counters.get(f"shard.{key}", 0)
            for key in ("drain_s", "merge_s", "ingest_s", "retime_s")),
        traced_wall_s) if sharded else None
    # mobility
    m["mobility.position_self_s"] = self_of("mobility.position")
    m["mobility.position_calls"] = calls_of("mobility.position")
    m["mobility.event_self_s"] = owned_self("mobility.")
    m["mobility.leg_events"] = owned_calls("mobility.", "leg")
    m["mobility.reanchor_events"] = owned_calls("mobility.", "reanchor")
    m["mobility.map_build_s"] = total_of("mobility.map_build")
    # net.medium: delivery and CSMA-retry callbacks live in the medium
    # module (classic engine) or the shard engine (retimed deliveries).
    m["net.medium.broadcast_self_s"] = self_of("net.medium.broadcast")
    m["net.medium.deliver_self_s"] = \
        owned_self("net.medium.") + owned_self("sim.shard.engine.")
    m["net.medium.csma_retries"] = \
        owned_calls("net.medium.", "attempt_send") + \
        owned_calls("sim.shard.engine.", "attempt_send")
    sent, delivered, collided, lost_random, lost_fault = (
        tracer.medium_counter(attr) for attr in _MEDIUM_COUNTERS)
    lost = None if None in (lost_random, lost_fault) \
        else lost_random + lost_fault
    m["net.medium.frames_sent"] = sent
    m["net.medium.frames_delivered"] = delivered
    m["net.medium.frames_collided"] = collided
    m["net.medium.frames_lost"] = lost
    m["net.medium.delivery_ratio"] = None \
        if None in (delivered, collided, lost) \
        else ratio(delivered, delivered + collided + lost)
    # net.node
    m["net.node.receive_self_s"] = self_of("net.node.receive")
    m["net.node.receive_calls"] = calls_of("net.node.receive")
    m["net.node.send_self_s"] = self_of("net.node.send")
    # core.stack
    m["core.stack.membership.on_heartbeat_self_s"] = \
        self_of("core.stack.membership.on_heartbeat")
    m["core.stack.membership.on_heartbeat_calls"] = \
        calls_of("core.stack.membership.on_heartbeat")
    m["core.stack.membership.recompute_delays_self_s"] = \
        self_of("core.stack.membership.recompute_delays")
    m["core.stack.membership.beat_self_s"] = \
        owned_self("core.stack.membership.")
    m["core.stack.membership.heartbeats_sent"] = protocol("heartbeats_sent")
    m["core.stack.forwarding.retrieve_self_s"] = \
        self_of("core.stack.forwarding.retrieve")
    m["core.stack.forwarding.send_batch_self_s"] = \
        self_of("core.stack.forwarding.send_batch")
    m["core.stack.forwarding.timer_self_s"] = \
        owned_self("core.stack.forwarding.")
    m["core.stack.forwarding.backoff_events"] = \
        owned_calls("core.stack.forwarding.")
    for key in ("id_lists_sent", "batches_sent", "events_forwarded"):
        m[f"core.stack.forwarding.{key}"] = protocol(key)
    m["core.stack.delivery.deliver_once_self_s"] = \
        self_of("core.stack.delivery.deliver_once")
    m["core.stack.delivery.delivered"] = protocol("delivered_count")
    for key in ("duplicates_dropped", "parasites_dropped"):
        m[f"core.stack.delivery.{key}"] = protocol(key)
    m["core.stack.delivery.useful_ratio"] = ratio(
        protocol("delivered_count"),
        protocol("delivered_count") + protocol("duplicates_dropped")
        + protocol("parasites_dropped"))
    # observers riding the medium's hooks and their own timers
    m["metrics.hook_self_s"] = owned_self("metrics.", prefixes=("hook",))
    m["metrics.summary_s"] = total_of("metrics.summary")
    m["energy.hook_self_s"] = owned_self("energy.", prefixes=("hook",)) + \
        owned_self("energy.")
    m["energy.sync_events"] = owned_calls("energy.")
    m["faults.event_self_s"] = owned_self("faults.")
    m["faults.extra_loss_self_s"] = owned_self("faults.", prefixes=("hook",))
    m["faults.events"] = owned_calls("faults.")
    # harness
    m["harness.scenario.build_world_s"] = \
        total_of("harness.scenario.build_world")
    m["harness.scenario.start_nodes_s"] = total_of("net.node.start")
    m["harness.scenario.run_self_s"] = \
        self_of("harness.scenario.run_scenario")
    m["harness.parallel.run_configs_s"] = \
        total_of("harness.parallel.run_configs")
    m["harness.parallel.result_pickle_s"] = \
        total_of("harness.parallel.result_pickle")
    m["harness.parallel.result_pickle_bytes"] = \
        counters.get("pickle_bytes", 0)
    m["harness.parallel.executed"] = counters.get("executed", 0)
    m["harness.cache.get_s"] = total_of("harness.cache.get")
    m["harness.cache.put_s"] = total_of("harness.cache.put")
    m["harness.cache.digest_s"] = total_of("harness.cache.digest")
    m["harness.cache.hits"] = counters.get("cache_hits", 0)
    gets = calls_of("harness.cache.get")
    m["harness.cache.misses"] = None if gets is None else \
        gets - counters.get("cache_hits", 0)
    m["harness.reporting.format_s"] = total_of("harness.reporting.format")
    m["harness.reporting.to_csv_s"] = total_of("harness.reporting.to_csv")
    m["harness.cli.main_self_s"] = self_of("harness.cli.main")
    m["study.expand_s"] = total_of("study.expand")
    m["study.analysis_s"] = total_of("study.analysis")
    m["study.cells"] = counters.get("cells", 0)
    m.update(codec_baseline(tracer.messages))
    m["trace.coverage"] = ratio(attributed[0], tracer.root_s)
    return m

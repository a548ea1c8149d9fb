"""Wall-clock FIB serving benchmark: inputs, oracle, timed phases, layer spans.

Every workload serves the ``taz`` profile FIB through planes opened by
``repro.serve.open_plane``, with a single closed-loop caller: each call
returns before the next one starts. Inputs are generated from the seed
before any plane exists, and every served label is checked against the
tabular oracle (``Fib.lookup``) outside the timed calls.

A run opens ``SETUP_REPS`` planes in turn. Each is set up (``open_plane``
up to the return of the first, checked batch), warmed up with one
untimed pass, and timed for an equal share of the untraced time; the
reported rates and set-up time are medians over the planes. With
``trace=1`` the last plane then serves a traced half, which times each
layer's public functions from here, around or beside the plane call;
``src/`` is untouched.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import serve
from repro.core.fib import Fib
from repro.datasets import build_profile_fib, caida_like_trace, profile, uniform_trace
from repro.datasets.updates import UpdateOp
from repro.pipeline import registry
from repro.pipeline.base import flat_program

PROFILE = "taz"
SCALE = 0.05
REPRESENTATION = "prefix-dag"
#: Addresses per lookup call on the read-only workloads.
LOOKUP_BATCH = 8192
#: Distinct batches per read-only workload, cycled through every phase.
READ_BATCHES = 32
#: churn-bgp: ``build_events`` batch size and feed length (about one
#: update per 128 lookups, the feed cycled if a run outlasts it).
CHURN_BATCH = 256
CHURN_UPDATES = 4096
LOOKUPS_PER_UPDATE = 128
#: churn-bgp warm-up: update runs and batches served before the clock.
CHURN_WARMUP_STEPS = 64
SETUP_REPS = 3
#: Per-reply deadline for the worker pool, so a hung worker fails the
#: run well inside its time limit instead of after the 120 s default.
POOL_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    plane: dict  # open_plane keyword arguments
    traffic: str  # "uniform", "zipf" or "churn"

    @property
    def kind(self) -> str:
        """The plane ``open_plane`` picks: server, cluster or pool."""
        if self.plane.get("workers", 0):
            return "pool"
        return "cluster" if self.plane.get("shards", 1) > 1 else "server"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("walk-uniform", {"shards": 1}, "uniform"),
        Workload("shard-zipf", {"shards": 4}, "zipf"),
        Workload("pool-zipf", {"workers": 2, "timeout": POOL_TIMEOUT_S}, "zipf"),
        Workload("churn-bgp", {"shards": 1}, "churn"),
    )
}

#: End-to-end metrics, gated by BENCHMARK.json (``--trace 0``).
END_TO_END = {
    "batch_p90_ms": "ms",
    "setup_s": "s",
    "served_bytes_per_prefix": "B/prefix",
}

#: Timed spans of the traced half; each also reports ``<span>.calls``.
SPANS = (
    "pipeline.registry.build",
    "pipeline.flat.compile",
    "pipeline.flat.walk",
    "pipeline.flat.drain",
    "serve.server.apply",
    "serve.server.lookup",
    "serve.cluster.group",
    "serve.cluster.split_vector",
    "serve.cluster.shard_walk",
    "serve.cluster.lookup",
    "serve.workers.split_vector",
    "serve.workers.lookup",
)

#: Per-layer metrics (``--trace 1``): every name on every workload, 0
#: where the layer does no work. Some user-facing figures sit here too,
#: ungated: the churn-only ones, because a gated metric must be defined
#: on every workload, and the throughput and the other latency
#: quantiles, because the host's speed swings move them by more than
#: any bound could allow (see README.md).
PER_LAYER = {
    "lookup_mlps": "Maddr/s",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "pipeline.registry.build_s": "s",
    "pipeline.flat.compile_s": "s",
    "pipeline.flat.image_bytes": "B",
    "pipeline.flat.walk_ns_per_addr": "ns/addr",
    "pipeline.flat.drain_ms_per_update": "ms/update",
    "pipeline.flat.patch_slots_per_update": "slots/update",
    "core.prefixdag.bits_per_prefix": "bit/prefix",
    "serve.server.apply_ms_per_update": "ms/update",
    "serve.server.self_ns_per_addr": "ns/addr",
    "serve.cluster.group_ns_per_addr": "ns/addr",
    "serve.cluster.split_vector_ns_per_addr": "ns/addr",
    "serve.cluster.shard_walk_ns_per_addr": "ns/addr",
    "serve.cluster.self_ns_per_addr": "ns/addr",
    "serve.cluster.model_mlps": "Maddr/s",
    "serve.cluster.model_ratio": "ratio",
    "serve.workers.split_vector_ns_per_addr": "ns/addr",
    "serve.workers.self_ns_per_addr": "ns/addr",
    "serve.workers.bytes_per_addr": "B/addr",
    "serve.workers.model_mlps": "Maddr/s",
    "serve.workers.model_ratio": "ratio",
    "serve.workers.degraded_lookups": "count",
    "serve.workers.failed_lookups": "count",
    "update_ops_per_s": "1/s",
    "visible_p50_ms": "ms",
    "visible_p99_ms": "ms",
    "batch_samples": "count",
    "failed_share": "share",
    "trace.overhead_share": "share",
    **{f"{span}.calls": "count" for span in SPANS},
}


class BenchError(RuntimeError):
    """The benchmark could not run its workload to the end."""


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    fib: Fib
    probe: array  # the set-up batch, served against the initial FIB
    probe_expected: np.ndarray
    batches: List[array] = field(default_factory=list)  # read-only traffic
    expected: List[np.ndarray] = field(default_factory=list)
    steps: List[Tuple[Tuple[UpdateOp, ...], array]] = field(default_factory=list)


def oracle_labels(fib: Fib, addresses, memo: Optional[dict] = None) -> np.ndarray:
    """Packed oracle labels (0 = no route) for ``addresses``."""
    lookup = fib.lookup
    if memo is None:
        return np.array([lookup(a) or 0 for a in addresses], dtype=np.int64)
    out = []
    for address in addresses:
        label = memo.get(address)
        if label is None:
            label = memo[address] = lookup(address) or 0
        out.append(label)
    return np.array(out, dtype=np.int64)


def oracle_apply(oracle: Fib, ops) -> int:
    """Replay ``ops`` on the oracle with the planes' acceptance rule
    (a withdrawal of an absent route is skipped); returns accepted."""
    accepted = 0
    for op in ops:
        try:
            oracle.update(op.prefix, op.length, op.label)
        except KeyError:
            continue
        accepted += 1
    return accepted


def make_inputs(workload: Workload, seed: int, scale: float) -> Inputs:
    fib = build_profile_fib(profile(PROFILE), scale=scale)
    if workload.traffic == "churn":
        events = serve.build_events(
            serve.scenario("bgp-churn"),
            fib,
            lookups=CHURN_UPDATES * LOOKUPS_PER_UPDATE,
            updates=CHURN_UPDATES,
            seed=seed,
            batch_size=CHURN_BATCH,
        )
        steps = []
        ops: List[UpdateOp] = []
        for event in events:
            if event.is_lookup:
                steps.append((tuple(ops), array("q", event.addresses)))
                ops = []
            else:
                ops.append(event.op)
        probe = steps[0][1]
        return Inputs(fib, probe, oracle_labels(fib, probe), steps=steps)
    count = READ_BATCHES * LOOKUP_BATCH
    if workload.traffic == "uniform":
        addresses = uniform_trace(count, seed=seed, width=fib.width)
    else:
        addresses = caida_like_trace(fib, count, seed=seed)
    memo: dict = {}
    batches = [
        array("q", addresses[start : start + LOOKUP_BATCH])
        for start in range(0, count, LOOKUP_BATCH)
    ]
    expected = [oracle_labels(fib, batch, memo) for batch in batches]
    return Inputs(fib, batches[0], expected[0], batches, expected)


# --------------------------------------------------------------- accounting


@dataclass
class Tally:
    """Attempted and failed operations, plus why the run is not correct
    (the first ``MAX_PROBLEMS`` reasons; the counts stay exact)."""

    MAX_PROBLEMS = 20

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(text)

    def check(self, served, expected: np.ndarray, what: str) -> None:
        self.attempted += len(expected)
        labels = np.frombuffer(served, dtype=np.int64)
        wrong = (int(np.count_nonzero(labels != expected))
                 if labels.shape == expected.shape else len(expected))
        if wrong:
            self.failed += wrong
            self.problem(f"{what}: {wrong} labels disagree with the oracle")

    def raised(self, count: int, error: Exception, what: str) -> None:
        self.attempted += count
        self.failed += count
        self.problem(f"{what}: {error!r}")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


@dataclass
class Phase:
    """Per-call records of one timed phase (only timed calls count)."""

    addresses: List[int] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)  # per step, updates included
    latency: List[float] = field(default_factory=list)  # lookup calls only
    accepted: List[int] = field(default_factory=list)
    visible: List[float] = field(default_factory=list)

    def mlps(self) -> float:
        return sum(self.addresses) / sum(self.seconds) / 1e6


class Spans:
    """Accumulated seconds and call counts per span name."""

    def __init__(self):
        self.seconds = {name: 0.0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def time(self, name: str, call, *args):
        """Run ``call(*args)`` as span ``name``; returns its result."""
        started = time.perf_counter()
        result = call(*args)
        self.add(name, time.perf_counter() - started)
        return result


# ------------------------------------------------------------------- planes


def served_image_bytes(plane) -> int:
    """Bytes of the flat image(s) the plane's walks read, summed over
    shards. On the pool's shm transport every worker maps the full
    published image, so it counts once per worker."""
    if isinstance(plane, serve.FibServer):
        return plane.serving_program().size_in_bits() // 8
    if isinstance(plane, serve.FibCluster):
        return sum(
            shard.server.serving_program().size_in_bits() // 8
            for shard in plane.shards
        )
    report = plane.report()
    if report.transport != "shm":
        raise BenchError(f"worker pool fell back to the {report.transport} transport")
    return sum(row["size_bits"] for row in report.shard_rows) // 8


def close_plane(plane, tally: Tally) -> None:
    """Close ``plane``; a linked segment or a live child fails the run."""
    plane.close()
    leaked = serve.leaked_segments(f"repro_{os.getpid():x}")
    if leaked:
        tally.problem(f"leaked shared-memory segments: {leaked}")
    children = multiprocessing.active_children()
    if children:
        tally.problem(f"child processes left running: {children}")
        for child in children:
            child.terminate()
            child.join(5.0)


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker that shared memory
    started, and wait for it, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def open_checked(workload: Workload, inputs: Inputs, tally: Tally):
    """Open the plane and serve the probe batch; returns (plane, seconds)."""
    started = time.perf_counter()
    plane = serve.open_plane(REPRESENTATION, inputs.fib, **workload.plane)
    try:
        served = plane.lookup_batch_packed(inputs.probe)
        elapsed = time.perf_counter() - started
        tally.check(served, inputs.probe_expected, "set-up batch")
    except BaseException:
        close_plane(plane, tally)
        raise
    return plane, elapsed


# ------------------------------------------------------------ plane calls


class Calls:
    """The timed plane calls. Each returns (result, seconds in the call);
    the tracers below add spans around and beside the same calls."""

    def __init__(self, plane, spans: Optional[Spans] = None):
        self.plane = plane
        self.spans = spans

    def lookup(self, batch):
        started = time.perf_counter()
        served = self.plane.lookup_batch_packed(batch)
        return served, time.perf_counter() - started

    def apply(self, ops):
        started = time.perf_counter()
        accepted = self.plane.apply_updates(ops)
        return accepted, time.perf_counter() - started


class ServerTracer(Calls):
    """FibServer: the plane call, then a re-run of its flat walk. Before
    each lookup that follows updates, ``serving_program()`` is timed as
    the patch drain, so the lookup call itself drains nothing."""

    def __init__(self, plane, spans: Spans):
        super().__init__(plane, spans)
        self.program = plane.serving_program()
        self.slots_seen = self.program.patch_slots_total
        self.patch_slots = 0

    def lookup(self, batch):
        served, spent = super().lookup(batch)
        self.spans.add("serve.server.lookup", spent)
        program = self.plane.serving_program()  # nothing left to drain
        self.spans.time("pipeline.flat.walk", program.lookup_batch_packed, batch)
        return served, spent

    def apply(self, ops):
        accepted, spent = super().apply(ops)
        self.spans.add("serve.server.apply", spent)
        started = time.perf_counter()
        program = self.plane.serving_program()
        drain = time.perf_counter() - started
        self.spans.add("pipeline.flat.drain", drain)
        if program is not self.program:  # recompiled: count from zero
            self.program, self.slots_seen = program, 0
        self.patch_slots += program.patch_slots_total - self.slots_seen
        self.slots_seen = program.patch_slots_total
        return accepted, spent + drain


class ClusterTracer(Calls):
    """FibCluster: the plane call, then re-runs of its owner split (both
    ``ShardPlan.group``, which it uses, and ``split_vector``) and of each
    shard program's walk over its sub-batch."""

    def lookup(self, batch):
        served, spent = super().lookup(batch)
        self.spans.add("serve.cluster.lookup", spent)
        plan = self.plane.plan
        groups = self.spans.time("serve.cluster.group", plan.group, batch)
        vector = np.frombuffer(batch, dtype=np.int64)
        self.spans.time("serve.cluster.split_vector", plan.split_vector, vector)
        shards = self.plane.shards
        for index, (_, addresses) in groups.items():
            program = shards[index].server.serving_program()
            sub = array("q", addresses)
            started = time.perf_counter()
            program.lookup_batch_packed(sub)
            elapsed = time.perf_counter() - started
            self.spans.add("serve.cluster.shard_walk", elapsed)
            self.spans.add("pipeline.flat.walk", elapsed)
        return served, spent


class PoolTracer(Calls):
    """WorkerPool: the plane call, then a re-run of the frontend owner
    split when the pool splits at the frontend. With broadcast fan-out
    the workers split, and there is nothing to subtract."""

    def __init__(self, plane, spans: Spans, frontend_splits: bool):
        super().__init__(plane, spans)
        self.frontend_splits = frontend_splits

    def lookup(self, batch):
        served, spent = super().lookup(batch)
        self.spans.add("serve.workers.lookup", spent)
        if self.frontend_splits:
            vector = np.frombuffer(batch, dtype=np.int64)
            self.spans.time("serve.workers.split_vector", self.plane.plan.split_vector, vector)
        return served, spent


# ------------------------------------------------------------------ passes


def read_pass(calls: Calls, inputs: Inputs, tally: Tally,
              seconds: Optional[float]) -> Phase:
    """Serve the read-only batches in a closed loop, cycling through
    them for ``seconds``, or once (the warm-up) when ``seconds`` is None."""
    phase = Phase()
    count = len(inputs.batches)
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    while (index < count) if deadline is None else (time.perf_counter() < deadline):
        batch = inputs.batches[index % count]
        try:
            served, spent = calls.lookup(batch)
        except Exception as error:  # noqa: BLE001 - counted, then the run stops
            tally.raised(len(batch), error, "lookup batch")
            break
        tally.check(served, inputs.expected[index % count], "lookup batch")
        phase.addresses.append(len(batch))
        phase.seconds.append(spent)
        phase.latency.append(spent)
        index += 1
    return phase


class ChurnFeed:
    """The churn steps in order (cycled), with the oracle kept in step."""

    def __init__(self, inputs: Inputs):
        self.steps = inputs.steps
        self.oracle = inputs.fib.copy()
        self.next = 0

    def take(self):
        ops, batch = self.steps[self.next % len(self.steps)]
        self.next += 1
        accepted = oracle_apply(self.oracle, ops)
        return ops, accepted, batch, oracle_labels(self.oracle, batch)


def churn_pass(calls: Calls, feed: ChurnFeed, tally: Tally,
               seconds: Optional[float]) -> Phase:
    """Replay churn steps: one ``apply_updates`` call for the run of
    updates before each batch, then the batch. ``seconds=None`` is the
    warm-up (``CHURN_WARMUP_STEPS`` steps)."""
    phase = Phase()
    deadline = None if seconds is None else time.perf_counter() + seconds
    taken = 0
    while ((taken < CHURN_WARMUP_STEPS) if deadline is None
           else (time.perf_counter() < deadline)):
        ops, expected_accepted, batch, expected = feed.take()
        taken += 1
        try:
            accepted, applying = calls.apply(ops) if ops else (0, 0.0)
            served, spent = calls.lookup(batch)
        except Exception as error:  # noqa: BLE001 - counted, then the run stops
            tally.raised(len(ops) + len(batch), error, "churn step")
            break
        tally.attempted += len(ops)
        if accepted != expected_accepted:
            tally.failed += len(ops)
            tally.problem(
                f"update run: plane accepted {accepted}, oracle {expected_accepted}"
            )
        tally.check(served, expected, "lookup batch")
        phase.addresses.append(len(batch))
        phase.seconds.append(applying + spent)
        phase.latency.append(spent)
        phase.accepted.append(accepted)
        if ops:
            phase.visible.append(applying + spent)
    return phase


def time_layers(fibs: List[Fib], spans: Spans) -> int:
    """Span ``registry.build`` and the first ``flat_program`` compile
    once per structure the plane builds (one per FIB of ``fibs``);
    returns the structures' summed ``size_bits()``."""
    size_bits = 0
    for fib in fibs:
        representation = spans.time(
            "pipeline.registry.build", registry.build, REPRESENTATION, fib)
        spans.time("pipeline.flat.compile", flat_program, representation)
        size_bits += representation.size_bits()
    return size_bits


# ---------------------------------------------------------------------- run


@dataclass
class Result:
    lines: List[str]
    record: dict


def serve_phase(calls: Calls, inputs: Inputs, feed: Optional[ChurnFeed],
                tally: Tally, seconds: Optional[float]) -> Phase:
    if feed is not None:
        return churn_pass(calls, feed, tally, seconds)
    return read_pass(calls, inputs, tally, seconds)


def trace_layers(workload: Workload, plane, inputs: Inputs,
                 feed: Optional[ChurnFeed], tally: Tally, seconds: float,
                 untraced: Phase, before, layer: dict) -> None:
    """Run the traced phase on ``plane`` and fill the per-layer metrics.

    ``untraced`` is the plane's own untraced phase and ``before`` its
    ``report()`` (sharded planes) from just before that phase: the
    model figures and the tracing overhead compare against them.
    """
    mlps = untraced.mlps()
    spans = Spans()
    if workload.kind != "server":
        after = plane.report()
        lookups = after.lookups - before.lookups
        model = lookups / (after.lookup_seconds - before.lookup_seconds) / 1e6
        prefix = "serve.cluster" if workload.kind == "cluster" else "serve.workers"
        layer[f"{prefix}.model_mlps"] = model
        layer[f"{prefix}.model_ratio"] = model / mlps
    if workload.kind == "server":
        tracer = ServerTracer(plane, spans)
    elif workload.kind == "cluster":
        tracer = ClusterTracer(plane, spans)
    else:
        moved = after.bytes_tx + after.bytes_rx - before.bytes_tx - before.bytes_rx
        layer["serve.workers.bytes_per_addr"] = moved / lookups
        # The workers' own busy clock: their walks run out of reach here.
        layer["pipeline.flat.walk_ns_per_addr"] = (
            (after.busy_lookup_seconds - before.busy_lookup_seconds) / lookups * 1e9)
        broadcast = after.bytes_tx >= 8 * after.lookups * after.shards
        tracer = PoolTracer(plane, spans, frontend_splits=not broadcast)
    gc.collect()
    traced = serve_phase(tracer, inputs, feed, tally, seconds)
    if not traced.addresses:
        raise BenchError(f"no batch was served in the traced phase: {tally.problems}")

    addresses = sum(traced.addresses)
    updates = sum(traced.accepted)

    def ns(span):
        return spans.seconds[span] / addresses * 1e9

    if workload.kind == "pool":
        final = plane.report()
        layer["serve.workers.degraded_lookups"] = final.degraded_lookups
        layer["serve.workers.failed_lookups"] = final.failed_lookups
        layer["serve.workers.split_vector_ns_per_addr"] = ns("serve.workers.split_vector")
        layer["serve.workers.self_ns_per_addr"] = (
            ns("serve.workers.lookup") - ns("serve.workers.split_vector"))
        fibs = [inputs.fib]
    elif workload.kind == "cluster":
        layer["pipeline.flat.walk_ns_per_addr"] = ns("pipeline.flat.walk")
        layer["serve.cluster.group_ns_per_addr"] = ns("serve.cluster.group")
        layer["serve.cluster.split_vector_ns_per_addr"] = ns("serve.cluster.split_vector")
        layer["serve.cluster.shard_walk_ns_per_addr"] = ns("serve.cluster.shard_walk")
        layer["serve.cluster.self_ns_per_addr"] = (
            ns("serve.cluster.lookup") - ns("serve.cluster.group")
            - ns("serve.cluster.shard_walk"))
        fibs = [spec.fib for spec in plane.plan.materialize(inputs.fib)]
    else:
        layer["pipeline.flat.walk_ns_per_addr"] = ns("pipeline.flat.walk")
        layer["serve.server.self_ns_per_addr"] = (
            ns("serve.server.lookup") - ns("pipeline.flat.walk"))
        if updates:
            layer["pipeline.flat.drain_ms_per_update"] = (
                spans.seconds["pipeline.flat.drain"] / updates * 1e3)
            layer["pipeline.flat.patch_slots_per_update"] = tracer.patch_slots / updates
            layer["serve.server.apply_ms_per_update"] = (
                spans.seconds["serve.server.apply"] / updates * 1e3)
        fibs = [inputs.fib]
    size_bits = time_layers(fibs, spans)
    layer["pipeline.registry.build_s"] = spans.seconds["pipeline.registry.build"]
    layer["pipeline.flat.compile_s"] = spans.seconds["pipeline.flat.compile"]
    layer["core.prefixdag.bits_per_prefix"] = size_bits / len(inputs.fib)
    layer["trace.overhead_share"] = 1.0 - traced.mlps() / mlps
    for span in SPANS:
        layer[f"{span}.calls"] = spans.calls[span]


def run(name: str, *, seed: int, seconds: float, trace: bool,
        scale: float = SCALE) -> Result:
    """Run one workload end to end and return its printed record.

    Each of the ``SETUP_REPS`` planes is set up, warmed up and then timed
    for an equal share of the untraced time, so the medians over planes
    resist one slow plane or one slow stretch of the host. With
    ``trace``, the last plane then serves the traced half.
    """
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, seed, scale)
    routes = len(inputs.fib)
    tally = Tally()
    layer = {key: 0.0 for key in PER_LAYER}
    untraced = seconds / 2 if trace else seconds
    setups: List[float] = []
    phases: List[Phase] = []
    plane = None
    try:
        for _ in range(SETUP_REPS):
            if plane is not None:
                close_plane(plane, tally)
                plane = None
                gc.collect()
            plane, elapsed = open_checked(workload, inputs, tally)
            setups.append(elapsed)
            if len(setups) == 1:
                image_bytes = served_image_bytes(plane)
            feed = ChurnFeed(inputs) if workload.traffic == "churn" else None
            serve_phase(Calls(plane), inputs, feed, tally, None)  # warm-up
            gc.collect()
            before = plane.report() if workload.kind != "server" else None
            phase = serve_phase(Calls(plane), inputs, feed, tally,
                                untraced / SETUP_REPS)
            if not phase.addresses:
                raise BenchError(
                    f"no batch was served in the timed phase: {tally.problems}")
            phases.append(phase)
        if trace:
            trace_layers(workload, plane, inputs, feed, tally, seconds / 2,
                         phases[-1], before, layer)
    finally:
        if plane is not None:
            close_plane(plane, tally)
        stop_resource_tracker()

    latency = [value for phase in phases for value in phase.latency]
    visible = [value for phase in phases for value in phase.visible]
    e2e = {
        "batch_p90_ms": percentile(latency, 0.90) * 1e3,
        "setup_s": statistics.median(setups),
        "served_bytes_per_prefix": image_bytes / routes,
    }
    layer["lookup_mlps"] = statistics.median(phase.mlps() for phase in phases)
    layer["batch_p50_ms"] = percentile(latency, 0.50) * 1e3
    layer["batch_p99_ms"] = percentile(latency, 0.99) * 1e3
    layer["pipeline.flat.image_bytes"] = image_bytes
    layer["batch_samples"] = len(latency)
    layer["failed_share"] = tally.failed / tally.attempted
    if visible:
        layer["update_ops_per_s"] = statistics.median(
            sum(phase.accepted) / sum(phase.seconds) for phase in phases)
        layer["visible_p50_ms"] = percentile(visible, 0.50) * 1e3
        layer["visible_p99_ms"] = percentile(visible, 0.99) * 1e3

    lines = [
        f"workload {name}  seed {seed}  routes {routes}  trace {int(trace)}  "
        f"timed {sum(sum(phase.seconds) for phase in phases):.2f} s over "
        f"{len(latency)} lookup calls on {len(phases)} planes",
    ]
    shown = [(key, e2e[key], unit) for key, unit in END_TO_END.items()]
    extras = PER_LAYER if trace else (
        "lookup_mlps", "batch_p50_ms", "batch_p99_ms", "update_ops_per_s",
        "visible_p50_ms", "visible_p99_ms", "failed_share")
    shown += [(key, layer[key], PER_LAYER[key]) for key in extras]
    lines.extend(f"  {key:<40} {value:>14.6g} {unit}" for key, value, unit in shown)
    lines.append(f"  batch latency samples {len(latency)}, "
                 f"visibility samples {len(visible)}")
    lines.extend(f"  FAILED: {problem}" for problem in tally.problems)
    chosen, values = (PER_LAYER, layer) if trace else (END_TO_END, e2e)
    record = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": unit}
            for key, unit in chosen.items()
        },
    }
    return Result(lines, record)

"""Sharded serving cluster — scaling curve and parity gate.

The cluster replays one 2^16-address bgp-churn scenario script (the
mixed lookup/update workload of ``bench_serve_throughput``) through
``repro.serve.cluster`` at 1/2/4/8 prefix-partitioned shards, plus a
4-shard hash-partitioned point, and compares aggregate lookup
throughput against the single ``FibServer`` baseline. Aggregate
throughput runs on the **critical-path clock**: each batch is charged
the slowest participating shard (shards are independent workers in a
deployment), so the curve shows what the fan-out actually buys after
partition imbalance — the locality trace concentrates both hot ranges
(prefix mode) and hot flows (hash mode), which is why efficiency sits
below 1.0.

Both sides replay the script with packed address batches, and the
single server serves them through ``lookup_batch_packed`` — the call a
cluster shard's clock times — so the modeled ratios compare like with
like. Next to that modeled curve the bench records ``wall_speedups``:
each row's *measured* ``measured_lookup_mlps`` (lookups over the
cluster's frontend fan-out span — split, shard walks and merge in one
process) over the single server's wall figure (``baseline_wall_mlps``,
timed around each whole lookup call). It is recorded, not gated: it
says how far the in-process fan-out is from serving as fast as one
server.

Two acceptance gates:

* **parity** — every cluster run must agree 100% with the single-server
  tabular oracle after quiescence, on every shard count;
* **scaling floor** — at 4 shards (the better of the prefix and hash
  points; which one wins is workload- and machine-dependent) aggregate
  lookup throughput must be at least 2x the single-server baseline.

Results go to ``results/cluster_scaling.txt`` and the JSON trajectory
to ``BENCH_cluster.json`` at the repository root (CI uploads it next to
``BENCH_pipeline.json`` / ``BENCH_serve.json``; see docs/benchmarks.md
for the field reference).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import serve
from repro.analysis import render_cluster_rows
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.serve.workers import pack_events

LOOKUPS = 1 << 16
UPDATES = 256
BATCH_SIZE = 8192
SEED = 42
REPRESENTATION = "prefix-dag"
SHARD_CURVE = (1, 2, 4, 8)
REPEAT = 3  # best-of, like the pipeline bench
#: Scaling floor: 4-shard aggregate lookup throughput vs one server.
CLUSTER_SPEEDUP_FLOOR = 2.0

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


@pytest.fixture(scope="module")
def events(profile_fib):
    """The script with packed address batches, so neither side times a
    per-element conversion."""
    fib = profile_fib(PRIMARY_PROFILE)
    return pack_events(serve.build_events(
        serve.scenario("bgp-churn"),
        fib,
        lookups=LOOKUPS,
        updates=UPDATES,
        seed=SEED,
        batch_size=BATCH_SIZE,
    ))


@pytest.fixture(scope="module")
def probes(profile_fib):
    return serve.parity_probes(profile_fib(PRIMARY_PROFILE), 1000, seed=SEED)


def _best(reports):
    """Best-of-N by lookup throughput (the repo's bench discipline)."""
    return max(reports, key=lambda report: report.lookup_mlps)


def _serve_packed(fib, events, probes):
    """One ``FibServer`` replaying the packed script through its packed
    path; returns ``(report, wall_mlps)``.

    A cluster shard's clock times ``FibServer.lookup_batch_packed`` on
    an int64 slice (the cluster decodes labels once, after the merge,
    on its frontend), so the baseline's clock times the same call: the
    modeled ratios compare like with like. ``wall_mlps`` times the whole
    call, patch-log drain included, as the cluster's fan-out span does.
    """
    server = serve.FibServer(REPRESENTATION, fib, measure_staleness=False)
    wall = 0.0
    for event in events:
        if event.is_lookup:
            started = time.perf_counter()
            server.lookup_batch_packed(event.addresses)
            wall += time.perf_counter() - started
        else:
            server.apply_update(event.op)
    server.quiesce()
    report = server.report(
        scenario="bgp-churn", final_parity=server.parity_fraction(probes)
    )
    return report, report.lookups / wall / 1e6


def _serve_baseline(fib, events, probes):
    return max(
        (_serve_packed(fib, events, probes) for _ in range(REPEAT)),
        key=lambda run: run[0].lookup_mlps,
    )


def _serve_cluster(fib, events, probes, shards, partition):
    return _best(
        serve.serve_cluster_scenario(
            REPRESENTATION,
            fib,
            events,
            scenario="bgp-churn",
            shards=shards,
            partition=partition,
            measure_staleness=False,
            parity_probes=probes,
        )
        for _ in range(REPEAT)
    )


def test_cluster_scaling_curve(profile_fib, events, probes, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    baseline, baseline_wall_mlps = _serve_baseline(fib, events, probes)
    assert baseline.final_parity == 1.0

    runs = [(shards, "prefix") for shards in SHARD_CURVE] + [(4, "hash")]
    reports = []
    for shards, partition in runs:
        report = _serve_cluster(fib, events, probes, shards, partition)
        # The parity gate: post-quiescence agreement with the oracle on
        # every shard count and partition mode.
        assert report.final_parity == 1.0, (shards, partition)
        assert report.pending_updates == 0
        reports.append(report)

    speedups = {
        (report.shards, report.partition): report.lookup_mlps / baseline.lookup_mlps
        for report in reports
    }
    text = banner(
        f"cluster scaling on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} lookups "
        f"/ {UPDATES} updates, bgp-churn, {REPRESENTATION}, best of {REPEAT})"
    )
    text += "\n" + render_cluster_rows(reports)
    wall_speedups = {
        (report.shards, report.partition): (
            report.measured_lookup_mlps / baseline_wall_mlps
        )
        for report in reports
    }
    text += (
        f"\nsingle-server baseline: {baseline.lookup_mlps:.2f} Mlps "
        f"({baseline_wall_mlps:.2f} Mlps wall)"
    )
    text += "\nscaling curve: " + "  ".join(
        f"{shards}x{partition[0]}={speedups[(shards, partition)]:.2f}"
        for shards, partition in runs
    )
    text += "\nwall-clock ratio: " + "  ".join(
        f"{shards}x{partition[0]}={wall_speedups[(shards, partition)]:.2f}"
        for shards, partition in runs
    )
    report_writer("cluster_scaling.txt", text)

    payload = {
        "command": "bench_cluster",
        "profile": PRIMARY_PROFILE,
        "scale": scale,
        "lookups": LOOKUPS,
        "updates": UPDATES,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "representation": REPRESENTATION,
        "repeat": REPEAT,
        "floor": CLUSTER_SPEEDUP_FLOOR,
        "baseline": baseline.to_dict(),
        "baseline_wall_mlps": baseline_wall_mlps,
        "rows": [report.to_dict() for report in reports],
        "speedups": {
            f"{shards}-{partition}": speedup
            for (shards, partition), speedup in speedups.items()
        },
        "wall_speedups": {
            f"{shards}-{partition}": speedup
            for (shards, partition), speedup in wall_speedups.items()
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The scaling floor: 4 shards vs one server, better partition wins.
    gated = max(speedups[(4, "prefix")], speedups[(4, "hash")])
    assert gated > CLUSTER_SPEEDUP_FLOOR, (
        f"4-shard aggregate lookup throughput only {gated:.2f}x the "
        f"single-server baseline (floor {CLUSTER_SPEEDUP_FLOOR}x)"
    )
    # More workers must not serve *less* than the 1-shard degenerate
    # cluster (a regression in the fan-out itself).
    assert speedups[(4, "prefix")] > speedups[(1, "prefix")]


def test_cluster_replication_is_bounded(profile_fib):
    # Range partitioning replicates only boundary-spanning routes: a
    # small fraction of the table (hash mode replicates everything).
    fib = profile_fib(PRIMARY_PROFILE)
    cluster = serve.FibCluster(REPRESENTATION, fib, shards=4, partition="prefix")
    report = cluster.report()
    assert report.replicated_routes < len(fib) * 0.05
    assert sum(shard.routes for shard in cluster.shards) <= len(fib) + 3 * report.replicated_routes

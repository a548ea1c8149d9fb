"""Pipeline lookup planes — scalar oracle vs compiled throughput.

Every registered representation is driven over the same uniform
2^16-address trace two ways: the per-address scalar loop (the reference
oracle) and the compiled flat plane that backs ``lookup_batch``
(:mod:`repro.pipeline.flat` — pointerless array programs, vectorized
when NumPy is importable). The report records both throughputs and the
sub-stride each program compiled at; one acceptance floor is asserted
so a regression in the batch path fails the harness:

* the compiled plane at least 3.75x its scalar loop on the binary trie
  and the prefix DAG with NumPy (the product of the retired 1.5x
  dispatch-vs-scalar and 2.5x compiled-vs-dispatch floors), and at
  least 1.5x on the pure-Python walk.

Results go to ``results/pipeline_batch.txt`` and the raw rows to
``BENCH_pipeline.json`` at the repo root — the trajectory file CI
uploads next to ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import pipeline
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.datasets.traces import uniform_trace

PACKETS = 1 << 16
BENCH_STRIDE = 16  # big root table for the throughput runs (2^16 slots)
#: Representations whose compiled plane must beat its scalar loop.
FLOORED = ("prefix-dag", "binary-trie")
#: Compiled-vs-scalar floor on the vectorized (NumPy) plane.
VECTOR_FLOOR = 3.75
#: Compiled-vs-scalar floor on the pure-Python walk.
PORTABLE_FLOOR = 1.5

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


@pytest.fixture(scope="module")
def addresses():
    return uniform_trace(PACKETS, seed=42)


@pytest.fixture(scope="module")
def bench_rows(profile_fib, addresses):
    fib = profile_fib(PRIMARY_PROFILE)
    overrides = pipeline.option_overrides("dispatch_stride", BENCH_STRIDE)
    return pipeline.bench_all(fib, addresses, overrides=overrides)


def test_compiled_agrees_with_scalar(profile_fib, addresses):
    fib = profile_fib(PRIMARY_PROFILE)
    representation = pipeline.build("prefix-dag", fib, dispatch_stride=BENCH_STRIDE)
    sample = addresses[:2000]
    scalar = [representation.lookup(address) for address in sample]
    assert representation.lookup_batch(sample) == scalar


def test_batch_speedup(benchmark, bench_rows, profile_fib, addresses, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    timed = pipeline.build("prefix-dag", fib, dispatch_stride=BENCH_STRIDE)
    timed.lookup_batch(addresses[:1])  # compiled plane built outside the timer
    benchmark(timed.lookup_batch, addresses)

    text = banner(
        f"pipeline lookup planes on {PRIMARY_PROFILE} (scale {scale}, "
        f"{PACKETS} packets, {'vectorized' if pipeline.have_numpy() else 'pure-python'})"
    )
    text += "\n" + pipeline.render_bench_rows(bench_rows)
    report_writer("pipeline_batch.txt", text)
    TRAJECTORY.write_text(
        json.dumps(
            {
                "command": "bench_pipeline_batch",
                "profile": PRIMARY_PROFILE,
                "scale": scale,
                "packets": PACKETS,
                "stride": BENCH_STRIDE,
                "vectorized": pipeline.have_numpy(),
                "rows": [row.to_dict() for row in bench_rows],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    by_name = {row.name: row for row in bench_rows}
    floor = VECTOR_FLOOR if pipeline.have_numpy() else PORTABLE_FLOOR
    for name in FLOORED:
        row = by_name[name]
        assert row.compiled, f"{name} did not compile a flat program"
        assert row.speedup > floor, (
            f"{name}: compiled plane only {row.speedup:.2f}x over the "
            f"scalar loop (floor {floor}x)"
        )

"""Lookup throughput measurement: the scalar oracle vs the compiled plane.

``repro-fib bench`` and ``benchmarks/bench_pipeline_batch.py`` both use
this module: for each representation, the same trace is pushed through

* the **scalar** per-address loop (the reference oracle), and
* the **compiled** flat plane (``lookup_batch`` over the
  representation's :class:`~repro.pipeline.flat.FlatProgram` —
  pointerless integer indexing, vectorized when NumPy is importable),

and the speedup is reported together with the sub-stride the compiler
settled on (a stride drop is reported, not hidden). Timings take the
best of ``repeat`` runs, the usual defense against scheduler noise in
wall-clock microbenchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.fib import Fib
from repro.pipeline import registry
from repro.pipeline.base import flat_program


@dataclass
class BenchRow:
    """Throughput of one representation over one trace."""

    name: str
    title: str
    lookups: int
    scalar_seconds: float
    batch_seconds: float
    size_kb: float
    compiled: bool = False                    # batch path is the flat plane
    program_kb: float = 0.0                   # compiled program image size
    sub_stride: Optional[int] = None          # block stride the compiler chose

    @property
    def scalar_mlps(self) -> float:
        """Million lookups per second, per-address loop."""
        return self.lookups / self.scalar_seconds / 1e6 if self.scalar_seconds else 0.0

    @property
    def batch_mlps(self) -> float:
        """Million lookups per second, batched (the serving path)."""
        return self.lookups / self.batch_seconds / 1e6 if self.batch_seconds else 0.0

    @property
    def speedup(self) -> float:
        """scalar time / batch time (>1 means the batch path wins)."""
        return self.scalar_seconds / self.batch_seconds if self.batch_seconds else 0.0

    def to_dict(self) -> dict:
        """JSON-ready record (``repro-fib bench --json``): raw timings
        plus the derived throughput figures CI trajectories track."""
        return {
            "name": self.name,
            "title": self.title,
            "lookups": self.lookups,
            "scalar_seconds": self.scalar_seconds,
            "batch_seconds": self.batch_seconds,
            "compiled": self.compiled,
            "size_kb": self.size_kb,
            "program_kb": self.program_kb,
            "sub_stride": self.sub_stride,
            "scalar_mlps": self.scalar_mlps,
            "batch_mlps": self.batch_mlps,
            "speedup": self.speedup,
        }


def _best_of(repeat: int, run: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def bench_representation(
    representation, addresses: Sequence[int], repeat: int = 3
) -> BenchRow:
    """Time the scalar loop and the compiled plane on one built
    backend."""
    if repeat < 1:
        raise ValueError("need at least one timing run")
    lookup = representation.lookup
    representation.lookup_batch(addresses[:1])  # build the serving plane up front
    program = flat_program(representation)

    def scalar_run():
        for address in addresses:
            lookup(address)

    scalar_best = _best_of(repeat, scalar_run)
    batch_best = _best_of(repeat, lambda: representation.lookup_batch(addresses))

    spec = getattr(representation, "spec", None)
    name = getattr(representation, "name", type(representation).__name__)
    return BenchRow(
        name=name,
        title=spec.title if spec is not None else name,
        lookups=len(addresses),
        scalar_seconds=scalar_best,
        batch_seconds=batch_best,
        compiled=program is not None,
        size_kb=representation.size_kbytes(),
        program_kb=program.size_in_kbytes() if program is not None else 0.0,
        sub_stride=program.sub_stride if program is not None else None,
    )


def bench_all(
    fib: Fib,
    addresses: Sequence[int],
    only: Optional[List[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    repeat: int = 3,
) -> List[BenchRow]:
    """Build and bench every registered representation (or a subset).

    Building goes through :func:`~repro.pipeline.registry.build_all`, so
    the prefix-dag / serialized-dag fold sharing applies here too.
    """
    built = registry.build_all(fib, only=only, overrides=overrides)
    return [
        bench_representation(representation, addresses, repeat=repeat)
        for representation in built.values()
    ]


BENCH_HEADERS = (
    "representation",
    "size[KB]",
    "scalar Mlps",
    "batch Mlps",
    "sub-stride",
    "vs scalar",
)


def render_bench_rows(rows: Sequence[BenchRow]) -> str:
    """The bench report table shared by ``repro-fib bench`` and
    ``benchmarks/bench_pipeline_batch.py``."""
    from repro.analysis.report import render_table  # deferred: analysis imports pipeline

    body = [
        (
            row.name,
            row.size_kb,
            row.scalar_mlps,
            row.batch_mlps,
            row.sub_stride if row.sub_stride is not None else "-",
            f"{row.speedup:.2f}x",
        )
        for row in rows
    ]
    return render_table(BENCH_HEADERS, body)

"""repro.pipeline — unified representation registry + compiled batch lookups.

The architectural seam between the paper's many FIB representations and
everything that consumes them. Importing this package registers every
built-in representation:

>>> from repro import pipeline
>>> sorted(pipeline.names())  # doctest: +NORMALIZE_WHITESPACE
['binary-trie', 'lc-trie', 'multibit-dag', 'ortc', 'patricia',
 'prefix-dag', 'serialized-dag', 'shape-graph', 'tabular', 'xbw']

and any layer can build one by name with validated options:

>>> from repro.core.fib import Fib
>>> fib = Fib.from_entries([(0, 0, 1), (0b101, 3, 2)])
>>> dag = pipeline.build("prefix-dag", fib, barrier=3)
>>> dag.lookup_batch([0, 0b101 << 29])
[1, 2]
"""

from repro.pipeline.base import (
    CompressedFib,
    TraceableFib,
    UpdatableFib,
    flat_program,
    supports_flat,
    supports_trace,
    supports_updates,
)
from repro.pipeline.flat import (
    DEFAULT_MAX_CELLS,
    DEFAULT_STRIDE,
    DEFAULT_SUB_STRIDE,
    MAX_STRIDE,
    FlatCompileError,
    FlatProgram,
    check_stride,
    compile_binary,
    compile_multibit,
    have_numpy,
)
from repro.pipeline.bench import (
    BENCH_HEADERS,
    BenchRow,
    bench_all,
    bench_representation,
    render_bench_rows,
)
from repro.pipeline.compare import (
    CompareRow,
    Mismatch,
    assert_parity,
    compare_representations,
)
from repro.pipeline.shard import (
    boundary_routes,
    prefix_span,
    restrict_fib,
    shard_fibs,
)
from repro.pipeline.registry import (
    OptionSpec,
    RepresentationSpec,
    build,
    build_all,
    flat_capable,
    get,
    names,
    option_overrides,
    register,
    specs,
    trace_capable,
)

# Importing the adapters module performs the registrations.
import repro.pipeline.adapters  # noqa: E402,F401  (registration side effect)

__all__ = [
    "CompressedFib",
    "TraceableFib",
    "UpdatableFib",
    "flat_program",
    "supports_flat",
    "supports_trace",
    "supports_updates",
    "DEFAULT_MAX_CELLS",
    "DEFAULT_STRIDE",
    "DEFAULT_SUB_STRIDE",
    "MAX_STRIDE",
    "FlatCompileError",
    "FlatProgram",
    "compile_binary",
    "check_stride",
    "compile_multibit",
    "have_numpy",
    "flat_capable",
    "BENCH_HEADERS",
    "BenchRow",
    "bench_all",
    "bench_representation",
    "render_bench_rows",
    "CompareRow",
    "Mismatch",
    "assert_parity",
    "compare_representations",
    "boundary_routes",
    "prefix_span",
    "restrict_fib",
    "shard_fibs",
    "OptionSpec",
    "RepresentationSpec",
    "build",
    "build_all",
    "get",
    "names",
    "option_overrides",
    "register",
    "specs",
    "trace_capable",
]

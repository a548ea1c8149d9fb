"""repro.serve.cluster — sharded serving across N FibServer workers.

One :class:`~repro.serve.server.FibServer` tops out at whatever a
single process can push through its compiled lookup plane. This module
is the scale-out step the ROADMAP's north star asks for: a
:class:`FibCluster` partitions the address space across N workers,
fans every lookup batch out to the owning shards, merges the answers
back in input order, and routes each route update to exactly the
shard(s) whose range its prefix covers.

**Partitioning.** Two :class:`ShardPlan` modes:

* ``prefix`` — contiguous address ranges, cut on coarse slot
  boundaries and balanced by binary-trie **leaf counts** (state, not
  traffic: every shard compiles a similar share of the structure).
  Each shard serves the sub-FIB of routes whose address interval
  intersects its range (:func:`repro.pipeline.shard.restrict_fib`), so
  per-shard LPM answers equal the unsharded table's exactly; prefixes
  spanning a cut — short prefixes, ultimately the default route —
  **replicate** into every covering shard, which is what keeps
  boundary addresses correct.
* ``hash`` — flows spread by a splitmix64 hash of the address, the
  ECMP-style load balancer. Lookup load is near-perfectly even, but
  hash classes are not prefix-aligned, so every shard must hold the
  full table and every update fans out to all N workers: replication
  of *all* state is the price of perfect balance.

**The epoch coordinator.** Shard servers are built with
``auto_rebuild=False``: a pending-updates threshold never triggers a
rebuild inside a worker. Instead the :class:`EpochCoordinator` is
ticked once per event and swaps **at most one due shard per tick**,
round-robin, reusing the server's epoch machinery (fresh generation
compiled off the lookup path, one-reference swap). Generations
therefore roll through the cluster shard-by-shard — there is never a
tick where every worker rebuilds at once — and the aggregate memory
high-water mark stays near ``total + one shard`` instead of the
``2 x total`` a global pause would need. The cluster's
:class:`~repro.serve.metrics.ClusterReport` records per-shard
staleness, the staggered swap count and that aggregate peak.

**The fan-out.** A batch is range-checked and viewed as int64 once
(:meth:`ShardPlan.checked_batch`, in place for packed input), split by
owner in C (:meth:`ShardPlan.split_vector`), served slice by slice
through each shard's packed path, and scatter-merged back into input
order with one ``out[positions] = labels`` per shard
(:func:`merge_labels`). Without NumPy the portable twin does the same
with :meth:`ShardPlan.group` and a per-address merge; the worker pool
(:mod:`repro.serve.workers`) splits and merges through the same
helpers.

**Clocks.** Shards are independent workers, so the cluster charges
each batch the *slowest participating shard's* serving time (the
critical path — what a deployment with one worker per shard would
observe) while also accumulating the summed busy time; the ratio is
the report's ``parallel_efficiency``. The fan-out span itself — split,
shard walks and merge, measured on the frontend — is the report's
``wall_lookup_seconds``, so ``model_agreement`` prices what the model
leaves out.

>>> from repro.core.fib import Fib
>>> from repro import serve
>>> fib = Fib.from_entries([(0, 0, 1), (0b0, 1, 2), (0b1, 1, 3)])
>>> cluster = serve.FibCluster("binary-trie", fib, shards=2)
>>> cluster.lookup_batch([0, 1 << 31])      # one address per shard
[2, 3]
>>> cluster.report().replicated_routes      # the default route spans the cut
1
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.fib import Fib
from repro.core.trie import BinaryTrie, TrieNode
from repro.datasets.updates import UpdateOp
from repro.obs import NULL_REGISTRY, Registry
from repro.pipeline import registry
from repro.pipeline.flat import address_vector, check_addresses, have_numpy
from repro.pipeline.shard import (
    DEFAULT_GRANULARITY_BITS,
    MAX_GRANULARITY_BITS,
    ShardSpec,
    boundary_routes,
    prefix_span,
    restrict_fib,
    shard_specs,
)
from repro.serve.autoscale import MISS, AutoscalePolicy, FlowCache, TrafficStats
from repro.serve.metrics import ClusterReport
from repro.serve.scenarios import ServeEvent
from repro.serve.server import DEFAULT_REBUILD_EVERY, FibServer, _ints

#: Partition modes a plan understands.
PARTITION_MODES = ("prefix", "hash")

# DEFAULT_GRANULARITY_BITS / MAX_GRANULARITY_BITS now live in
# repro.pipeline.shard (they are properties of the cut machinery, not
# of serving) and are re-exported here for compatibility.

try:  # the vector fan-out: owner split and scatter-merge in C
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

_MASK64 = (1 << 64) - 1

#: Largest address width the vectorized owner split can shift in int64
#: (the same bound as the flat plane's vector walk).
_NUMPY_MAX_WIDTH = 62


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a deterministic, well-spread 64-bit
    mix (no dependence on Python's randomized ``hash``)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _mix64_vector(np, values):
    """The splitmix64 finalizer over a uint64 vector (wrapping C ops —
    bit-identical to :func:`_mix64` element-wise)."""
    values = (values + np.uint64(0x9E3779B97F4A7C15))
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the ``width``-bit address space into ``shards``.

    ``prefix`` mode stores the ascending cut list ``bounds`` (length
    ``shards + 1``, from 0 to ``2^width``); ``hash`` mode owns by a
    splitmix64 hash and every shard's range is the whole space.

    ``hot`` names half-open address ranges replicated into *every*
    shard (traffic-weighted planning marks slots whose observed load
    would dominate any contiguous cut). Hot addresses have no single
    owner — ownership becomes a deterministic *choice*: the frontend
    **sprays** them with a seeded splitmix64 hash offset by the batch
    position, so one ultra-hot flow spreads across all shards while
    any fixed (seed, batch) pair replays identically.
    """

    mode: str
    width: int
    shards: int
    bounds: Tuple[int, ...] = ()
    hot: Tuple[Tuple[int, int], ...] = ()
    spray_seed: int = 0

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.mode!r}; "
                f"choose one of {', '.join(PARTITION_MODES)}"
            )
        if self.shards < 1:
            raise ValueError(f"shard count must be positive, got {self.shards}")
        if self.mode == "prefix":
            if len(self.bounds) != self.shards + 1:
                raise ValueError(
                    f"prefix plan needs {self.shards + 1} bounds, "
                    f"got {len(self.bounds)}"
                )
            if self.bounds[0] != 0 or self.bounds[-1] != (1 << self.width):
                raise ValueError("prefix plan bounds must span the address space")
            if any(
                self.bounds[i] >= self.bounds[i + 1]
                for i in range(len(self.bounds) - 1)
            ):
                raise ValueError("prefix plan bounds must be strictly ascending")
        elif self.hot:
            raise ValueError("hash plans spread load already; hot ranges "
                             "only apply to prefix partitioning")
        space = 1 << self.width
        flat: List[int] = []
        for lo, hi in self.hot:
            if not 0 <= lo < hi <= space:
                raise ValueError(f"hot range [{lo:#x}, {hi:#x}) outside the space")
            if flat and lo < flat[-1]:
                raise ValueError("hot ranges must be ascending and disjoint")
            flat.extend((lo, hi))
        # Flattened hot bounds for O(log n) membership (frozen dataclass:
        # a derived cache, not a field).
        object.__setattr__(self, "_hot_flat", tuple(flat))

    def is_hot(self, address: int) -> bool:
        """True when ``address`` falls in a replicated hot range."""
        flat = self._hot_flat
        return bool(flat) and bool(bisect_right(flat, address) & 1)

    def spray_owner(self, address: int, position: int = 0) -> int:
        """The sprayed shard choice for a hot address at batch position
        ``position`` — seeded splitmix64 plus the position, mod shards,
        so repeats of one flow inside a batch fan across all shards
        deterministically."""
        return (_mix64((address ^ self.spray_seed) & _MASK64) + position) % self.shards

    def owner(self, address: int) -> int:
        """The shard serving ``address`` (position-0 spray when hot)."""
        if self.mode == "hash":
            return _mix64(address) % self.shards
        if self.is_hot(address):
            return self.spray_owner(address)
        return bisect_right(self.bounds, address) - 1

    def shard_range(self, index: int) -> Tuple[int, int]:
        """Half-open address range shard ``index`` is responsible for."""
        if self.mode == "hash":
            return 0, 1 << self.width
        return self.bounds[index], self.bounds[index + 1]

    def owners(self, prefix: int, length: int) -> Tuple[int, ...]:
        """Every shard whose range intersects the prefix's interval —
        the shards a route for ``prefix/length`` must live on (more
        than one exactly when the prefix spans a cut, all of them when
        it touches a replicated hot range, since sprayed addresses can
        land anywhere)."""
        if self.mode == "hash":
            return tuple(range(self.shards))
        lo, hi = prefix_span(prefix, length, self.width)
        if any(lo < hot_hi and hot_lo < hi for hot_lo, hot_hi in self.hot):
            return tuple(range(self.shards))
        first = bisect_right(self.bounds, lo) - 1
        last = bisect_left(self.bounds, hi) - 1
        return tuple(range(first, last + 1))

    def group(
        self, addresses: Sequence[int]
    ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Split a batch by owning shard, remembering input positions
        so merged answers come back in input order — the portable twin
        of :meth:`split_vector` (and the split ``parity_fraction``
        probes through)."""
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        if self.mode == "hash":
            shards = self.shards
            for position, address in enumerate(addresses):
                slot = _mix64(address) % shards
                entry = groups.get(slot)
                if entry is None:
                    entry = groups[slot] = ([], [])
                entry[0].append(position)
                entry[1].append(address)
            return groups
        bounds = self.bounds
        hot_flat = self._hot_flat
        for position, address in enumerate(addresses):
            if hot_flat and bisect_right(hot_flat, address) & 1:
                slot = self.spray_owner(address, position)
            else:
                slot = bisect_right(bounds, address) - 1
            entry = groups.get(slot)
            if entry is None:
                entry = groups[slot] = ([], [])
            entry[0].append(position)
            entry[1].append(address)
        return groups

    def split_vector(self, batch):
        """Owner split of an int64 NumPy address vector, entirely in C.

        Returns ``{shard: (positions, addresses)}`` with both values as
        int64 arrays — the vector twin of :meth:`group`, used by the
        cluster and worker frontends (through :meth:`split`) where the
        per-address Python loop would sit on the serial critical path
        of every fanned-out batch. Requires NumPy and a width the int64
        shift can carry (:attr:`vectorized`), and an in-range batch:
        an out-of-range address would have no owner.
        """
        np = _np

        if self.mode == "hash":
            owners = (
                _mix64_vector(np, batch.astype(np.uint64)) % np.uint64(self.shards)
            ).astype(np.int64)
        else:
            owners = np.searchsorted(
                np.asarray(self.bounds[1:-1], dtype=np.int64), batch, side="right"
            )
            if self.hot:
                # Replicated owners: a hot address belongs to *every*
                # shard, so the split chooses one per position with the
                # same seeded spray as the scalar path (bit-identical,
                # so vector and portable frontends route alike).
                flat = np.asarray(self._hot_flat, dtype=np.int64)
                hot_mask = (
                    np.searchsorted(flat, batch, side="right") & 1
                ).astype(bool)
                if hot_mask.any():
                    mixed = _mix64_vector(
                        np,
                        batch.astype(np.uint64) ^ np.uint64(self.spray_seed),
                    )
                    sprayed = (
                        (mixed + np.arange(batch.shape[0], dtype=np.uint64))
                        % np.uint64(self.shards)
                    ).astype(np.int64)
                    owners = np.where(hot_mask, sprayed, owners)
        groups = {}
        if self.shards <= 16:
            # One boolean mask per shard beats a stable argsort at the
            # shard counts a pool actually runs (O(shards·n) C compares
            # vs the sort's constant-heavy O(n log n)).
            for shard in range(self.shards):
                positions = np.nonzero(owners == shard)[0]
                if positions.size:
                    groups[shard] = (positions, batch[positions])
            return groups
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        present = np.arange(self.shards, dtype=np.int64)
        starts = np.searchsorted(sorted_owners, present, side="left")
        ends = np.searchsorted(sorted_owners, present, side="right")
        for shard in range(self.shards):
            if starts[shard] == ends[shard]:
                continue
            positions = order[starts[shard] : ends[shard]]
            groups[shard] = (positions, batch[positions])
        return groups

    @property
    def vectorized(self) -> bool:
        """True when :meth:`split_vector` is usable for this plan."""
        return have_numpy() and self.width <= _NUMPY_MAX_WIDTH

    def checked_batch(self, addresses: Sequence[int]):
        """A lookup batch ready for :meth:`split`, range-checked once.

        Vectorized plans view it as an int64 vector (in place for
        ``array('q')``, memoryview and ndarray input); the portable twin
        keeps the sequence as given. Either way an address outside the
        ``width``-bit space raises the ``ValueError`` a single
        :class:`~repro.serve.server.FibServer` raises — no shard, and
        no scatter slot, is ever left without an owner.
        """
        if self.vectorized:
            return address_vector(addresses, self.width)
        check_addresses(addresses, self.width)
        return addresses

    def split(self, batch) -> Dict[int, Tuple[Any, Any]]:
        """Owner split of a :meth:`checked_batch`: :meth:`split_vector`
        when vectorized, the portable :meth:`group` otherwise."""
        if self.vectorized:
            return self.split_vector(batch)
        return self.group(batch)

    def materialize(self, fib: Fib) -> List[ShardSpec]:
        """One :class:`~repro.pipeline.shard.ShardSpec` per shard of
        this plan — the shared partition step of the simulated cluster
        and the multi-process worker pool. Hash plans (and the 1-shard
        degenerate prefix plan) replicate the full FIB per shard."""
        if self.mode == "hash":
            full = 1 << self.width
            return [
                ShardSpec(index, 0, full, fib.copy())
                for index in range(self.shards)
            ]
        return shard_specs(fib, self.bounds, replicate=self.hot)


def merge_labels(count: int, parts):
    """Scatter-merge per-shard label replies back into input order.

    ``parts`` yields ``(positions, payload)`` pairs: the input positions
    one shard served — an int64 ndarray, packed int64 bytes, a sequence
    of ints, or None for the whole batch in order — and that shard's
    packed int64 labels (0 = no route). Every position must be covered
    by exactly one part. Returns one int64 label vector: a NumPy array
    filled by one ``out[positions] = labels`` scatter per part, or,
    without NumPy, an ``array('q')`` filled by the portable loop.
    """
    if _np is not None:
        out = _np.empty(count, dtype=_np.int64)
        for positions, payload in parts:
            labels = _np.frombuffer(payload, dtype=_np.int64)
            if positions is None:
                out[:] = labels
                continue
            if isinstance(positions, (bytes, bytearray)):
                positions = _np.frombuffer(positions, dtype=_np.int64)
            out[positions] = labels
        return out
    out = array("q", bytes(8 * count))
    for positions, payload in parts:
        labels = array("q")
        labels.frombytes(payload)
        if positions is None:
            positions = range(count)
        elif isinstance(positions, (bytes, bytearray)):
            positions = array("q", positions)
        for position, label in zip(positions, labels):
            out[position] = label
    return out


def _leaf_count(node: TrieNode) -> int:
    """Leaves in the sub-trie below ``node`` (the node itself if leaf)."""
    if node.is_leaf:
        return 1
    count = 0
    if node.left is not None:
        count += _leaf_count(node.left)
    if node.right is not None:
        count += _leaf_count(node.right)
    return count


def _slot_weights(trie: BinaryTrie, bits: int) -> List[float]:
    """Trie-leaf weight of each depth-``bits`` address slot.

    A leaf at depth >= ``bits`` counts 1 toward its covering slot; a
    leaf above the slot depth covers several slots and spreads its unit
    weight evenly across them, so shallow FIB regions do not look
    heavier than they are.
    """
    weights = [0.0] * (1 << bits)

    def walk(node: TrieNode, depth: int, slot: int) -> None:
        if depth == bits:
            weights[slot] += _leaf_count(node)
            return
        if node.is_leaf:
            spread = 1 << (bits - depth)
            share = 1.0 / spread
            base = slot << (bits - depth)
            for covered in range(base, base + spread):
                weights[covered] += share
            return
        if node.left is not None:
            walk(node.left, depth + 1, slot << 1)
        if node.right is not None:
            walk(node.right, depth + 1, (slot << 1) | 1)

    walk(trie.root, 0, 0)
    return weights


def _balanced_cuts(weights: Sequence[float], parts: int) -> List[int]:
    """Greedy contiguous split of ``weights`` into ``parts`` non-empty
    runs of near-equal total weight (cut after the slot where the
    cumulative weight first reaches the proportional target)."""
    slots = len(weights)
    if parts > slots:
        raise ValueError(f"cannot cut {slots} slots into {parts} parts")
    total = sum(weights) or 1.0
    cuts = [0]
    cumulative = 0.0
    slot = 0
    for part in range(1, parts):
        target = total * part / parts
        limit = slots - (parts - part)  # leave one slot per later part
        floor = cuts[-1] + 1            # at least one slot per part
        while slot < floor or (slot < limit and cumulative < target):
            cumulative += weights[slot]
            slot += 1
        cuts.append(slot)
    cuts.append(slots)
    return cuts


def _hot_slots(
    traffic: Sequence[float], hot_share: float, max_hot: int
) -> List[int]:
    """Slots whose observed traffic share exceeds ``hot_share`` — the
    replication candidates — hottest first, capped at ``max_hot``."""
    total = sum(traffic)
    if total <= 0 or hot_share >= 1.0 or max_hot < 1:
        return []
    threshold = total * hot_share
    ranked = sorted(
        (slot for slot, count in enumerate(traffic) if count > threshold),
        key=lambda slot: -traffic[slot],
    )
    return sorted(ranked[:max_hot])


def _merge_slots(slots: Sequence[int], shift: int) -> Tuple[Tuple[int, int], ...]:
    """Ascending slot indices -> merged half-open address ranges."""
    ranges: List[Tuple[int, int]] = []
    for slot in slots:
        lo, hi = slot << shift, (slot + 1) << shift
        if ranges and ranges[-1][1] == lo:
            ranges[-1] = (ranges[-1][0], hi)
        else:
            ranges.append((lo, hi))
    return tuple(ranges)


def plan_cluster(
    fib: Fib,
    shards: int,
    mode: str = "prefix",
    granularity: Optional[int] = None,
    traffic: Optional[Sequence[float]] = None,
    hot_share: float = 1.0,
    max_hot: int = 8,
    spray_seed: int = 0,
) -> ShardPlan:
    """Partition ``fib``'s address space into ``shards`` workers.

    ``prefix`` mode cuts the space on ``2^(width-granularity)``-aligned
    boundaries, balancing binary-trie leaf counts between the ranges;
    ``granularity`` defaults to /12 slots
    (:data:`~repro.pipeline.shard.DEFAULT_GRANULARITY_BITS`, raised
    automatically when the shard count needs finer cuts). ``hash`` mode
    needs no planning data beyond the shard count.

    ``traffic`` switches the cut weights from state to observed load:
    a vector of per-slot lookup counts (length ``2^G`` for some ``G``,
    which then *is* the planning granularity), typically a
    :class:`~repro.serve.autoscale.TrafficStats` snapshot. Slots whose
    traffic share exceeds ``hot_share`` are carved out as replicated
    ``hot`` ranges (at most ``max_hot``, hottest first): their load is
    sprayed evenly across all shards, so they are removed from the
    contiguous balancing problem entirely.
    """
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    if mode not in PARTITION_MODES:
        raise ValueError(
            f"unknown partition mode {mode!r}; choose one of "
            f"{', '.join(PARTITION_MODES)}"
        )
    width = fib.width
    if shards > (1 << min(width, MAX_GRANULARITY_BITS)):
        raise ValueError(
            f"{shards} shards exceed the {width}-bit planning granularity"
        )
    if mode == "hash":
        return ShardPlan(mode="hash", width=width, shards=shards)
    needed = max(1, (shards - 1).bit_length())
    if traffic is not None:
        bits = len(traffic).bit_length() - 1
        if len(traffic) != (1 << bits) or bits > min(width, MAX_GRANULARITY_BITS):
            raise ValueError(
                f"traffic vector length {len(traffic)} is not 2^G for a "
                f"valid granularity G <= {min(width, MAX_GRANULARITY_BITS)}"
            )
        if granularity is not None and granularity != bits:
            raise ValueError(
                f"granularity {granularity} conflicts with the "
                f"2^{bits}-slot traffic vector"
            )
        if bits < needed:
            raise ValueError(
                f"traffic granularity {bits} too coarse for {shards} shards"
            )
    else:
        bits = granularity if granularity is not None else DEFAULT_GRANULARITY_BITS
        bits = max(bits, needed)
        if not needed <= bits <= MAX_GRANULARITY_BITS:
            raise ValueError(
                f"granularity {bits} outside [{needed}, {MAX_GRANULARITY_BITS}] "
                f"for {shards} shards"
            )
        bits = min(bits, width)
    shift = width - bits
    hot: Tuple[Tuple[int, int], ...] = ()
    if traffic is not None and sum(traffic) > 0:
        weights = [float(count) for count in traffic]
        hot_slots = _hot_slots(weights, hot_share, max_hot)
        hot = _merge_slots(hot_slots, shift)
        for slot in hot_slots:
            # Sprayed load lands 1/N on every shard — uniform, so it
            # cannot tilt the contiguous cuts.
            weights[slot] = 0.0
        if not any(weights):
            # Everything observed was hot: fall back to state weights
            # for the contiguous remainder.
            weights = _slot_weights(BinaryTrie.from_fib(fib), bits)
    else:
        weights = _slot_weights(BinaryTrie.from_fib(fib), bits)
    cuts = _balanced_cuts(weights, shards)
    return ShardPlan(
        mode="prefix",
        width=width,
        shards=shards,
        bounds=tuple(cut << shift for cut in cuts),
        hot=hot,
        spray_seed=spray_seed,
    )


@dataclass
class ClusterShard:
    """One worker: its range, its build-time route count, and its
    server (the live post-churn count is ``len(server.control)``)."""

    index: int
    lo: int
    hi: int
    routes: int
    server: FibServer


class EpochCoordinator:
    """Staggers rebuild-plane epoch swaps shard-by-shard.

    The coordinator is ticked once per served event. Each tick it scans
    the shards round-robin from a moving cursor and swaps **at most
    one** whose pending-update backlog reached ``rebuild_every`` — so a
    burst that makes every shard due rolls fresh generations through
    the cluster one event at a time instead of pausing all workers on
    the same tick. Incremental shards never queue pending updates and
    the coordinator leaves them alone.
    """

    def __init__(self, shards: Sequence[ClusterShard], rebuild_every: int,
                 on_swap=None):
        if rebuild_every < 1:
            raise ValueError(f"rebuild_every must be positive, got {rebuild_every}")
        self._shards = list(shards)
        self._rebuild_every = rebuild_every
        self._cursor = 0
        self.swaps = 0
        #: Attach-time swap hook: called with the swapped shard's index
        #: after its ``rebuild()`` returns. The shared-memory worker
        #: plane uses it to observe generation publishes (its "shard" is
        #: the frontend publisher whose rebuild *is* a segment publish).
        self._on_swap = on_swap

    @property
    def rebuild_every(self) -> int:
        return self._rebuild_every

    def replace_server(self, index: int, server) -> None:
        """Swap in a fresh server behind shard ``index`` (same range and
        route count). The worker plane's supervisor calls this after a
        respawn: the replacement was just rebuilt from the current
        oracle, so its pending backlog starts empty and the coordinator
        simply stops seeing the dead proxy."""
        for position, shard in enumerate(self._shards):
            if shard.index == index:
                self._shards[position] = ClusterShard(
                    shard.index, shard.lo, shard.hi, shard.routes, server
                )
                return
        raise KeyError(f"no shard with index {index}")

    def due(self) -> List[int]:
        """Shards whose backlog reached the epoch threshold."""
        return [
            shard.index
            for shard in self._shards
            if len(shard.server.pending) >= self._rebuild_every
        ]

    def tick(self) -> Optional[int]:
        """Swap the next due shard (round-robin); returns its index, or
        None when no shard is due."""
        count = len(self._shards)
        for step in range(count):
            shard = self._shards[(self._cursor + step) % count]
            if len(shard.server.pending) >= self._rebuild_every:
                self._cursor = (shard.index + 1) % count
                shard.server.rebuild()
                self.swaps += 1
                if self._on_swap is not None:
                    self._on_swap(shard.index)
                return shard.index
        return None


class FibCluster:
    """Serve one representation from N partitioned FibServer workers.

    Parameters mirror :class:`~repro.serve.server.FibServer`, plus:

    shards:
        Worker count (1 degenerates to a single-server cluster).
    partition:
        ``"prefix"`` (range split balanced by trie leaf counts) or
        ``"hash"`` (splitmix64 flow spreading, full-state replicas).
    granularity:
        Prefix-mode cut alignment in address bits (default /12 slots,
        :data:`~repro.pipeline.shard.DEFAULT_GRANULARITY_BITS`).
    autoscale:
        An :class:`~repro.serve.autoscale.AutoscalePolicy` turning the
        traffic control loop on: per-slot lookup counters feed a
        traffic-weighted re-plan whenever observed ``lookup_imbalance``
        drifts past the policy threshold. The re-plan is **live**: one
        replacement shard is built per served event off the lookup
        path (the epoch coordinator's staggering, applied to whole
        shards), the old plan keeps serving throughout, and the flip
        is a single reference swap — no global pause, oracle parity
        held. The policy's ``flow_cache`` adds a generation-invalidated
        frontend LRU in front of the fan-out.
    """

    def __init__(
        self,
        name: str,
        fib: Fib,
        *,
        shards: int = 2,
        partition: str = "prefix",
        options: Optional[Dict[str, Any]] = None,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
        batched: bool = True,
        measure_staleness: bool = True,
        granularity: Optional[int] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        obs: Registry = NULL_REGISTRY,
    ):
        self._plan = plan_cluster(fib, shards, mode=partition, granularity=granularity)
        self._spec = registry.get(name)
        self._options = dict(options or {})
        self._rebuild_every = rebuild_every
        self._batched = batched
        self._measure_staleness = measure_staleness
        self._control = fib.copy()
        self._shards: List[ClusterShard] = []
        for spec in self._plan.materialize(fib):
            server = FibServer(
                name,
                spec.fib,
                options=self._options,
                rebuild_every=rebuild_every,
                batched=batched,
                measure_staleness=measure_staleness,
                auto_rebuild=False,  # the coordinator owns epoch swaps
                # One shared registry: shard servers are threads of the
                # same process, so their serve_* series aggregate.
                obs=obs,
            )
            self._shards.append(
                ClusterShard(spec.index, spec.lo, spec.hi, spec.routes, server)
            )
        self._coordinator = EpochCoordinator(
            self._shards, rebuild_every, on_swap=self._on_generation_swap
        )
        self._obs = obs
        self._policy = autoscale
        self._traffic: Optional[TrafficStats] = None
        self._flow_cache: Optional[FlowCache] = None
        if autoscale is not None:
            self._traffic = TrafficStats(
                fib.width, autoscale.granularity, obs=obs
            )
            if autoscale.flow_cache:
                self._flow_cache = FlowCache(autoscale.flow_cache, obs=obs)
        self._pending_plan: Optional[ShardPlan] = None
        self._pending_built: List[Optional[FibServer]] = []
        self._replans = 0
        self._lookups_during_replan = 0
        self._replan_seconds = 0.0
        self._last_replan_lookups = 0
        self._obs_replans = obs.counter(
            "autoscale_replans_total", "completed live traffic re-plans"
        )
        self._obs_imbalance = obs.gauge(
            "autoscale_lookup_imbalance",
            "observed lookup imbalance at the last drift check",
        )
        self._obs_fanout = obs.histogram(
            "cluster_fanout_seconds",
            "whole-batch fan-out + merge wall time (critical path and "
            "frontend merge work included)",
        )
        self._obs_shard_busy = [
            obs.gauge(
                "cluster_shard_busy_seconds",
                "cumulative per-shard lookup busy time",
                labelnames=("shard",),
            ).labels(shard.index)
            for shard in self._shards
        ]
        self._lookups = 0
        self._batches = 0
        self._updates_applied = 0
        self._updates_skipped = 0
        self._fanout_total = 0
        self._lookup_seconds = 0.0
        self._busy_lookup_seconds = 0.0
        self._wall_lookup_seconds = 0.0
        self._update_seconds = 0.0
        self._peak_size_bits = self._total_size_bits()

    # ------------------------------------------------------------- properties

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def shards(self) -> Tuple[ClusterShard, ...]:
        return tuple(self._shards)

    @property
    def control(self) -> Fib:
        """The cluster-wide continuously-updated tabular oracle."""
        return self._control

    @property
    def incremental(self) -> bool:
        """True when shard updates land in serving structures directly
        (all shards host the same representation, so they agree)."""
        return self._shards[0].server.incremental

    @property
    def coordinator(self) -> EpochCoordinator:
        return self._coordinator

    @property
    def is_stale(self) -> bool:
        """True while any shard has updates awaiting an epoch swap."""
        return any(shard.server.is_stale for shard in self._shards)

    def __repr__(self) -> str:
        return (
            f"FibCluster(name={self.name!r}, shards={self._plan.shards}, "
            f"partition={self._plan.mode!r}, "
            f"plane={'incremental' if self.incremental else 'rebuild'})"
        )

    # ---------------------------------------------------------------- lookups

    def lookup(self, address: int) -> Optional[int]:
        """Serve one address through its owning shard."""
        return self.lookup_batch([address])[0]

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Serve a batch through the fan-out, labels decoded (0 = no
        route becomes None)."""
        return [label if label else None for label in self._serve(addresses).tolist()]

    def lookup_batch_packed(self, addresses: Sequence[int]) -> bytes:
        """Packed-label twin of :meth:`lookup_batch` (native int64 with
        0 = no route), matching the single-server wire shape."""
        return self._serve(addresses).tobytes()

    def _serve(self, addresses: Sequence[int]):
        """The one lookup path behind both batch surfaces; returns the
        packed labels in input order.

        The batch is range-checked and viewed as int64 first, so a bad
        address changes nothing. The coordinator then gets its per-event
        tick (a due shard swaps off the lookup path, charged to its
        rebuild clock), then the autoscaler gets its step — fold the
        batch into the traffic grid, advance an in-flight re-plan by one
        shard, or check for drift. The fan-out itself is timed as the
        batch's wall clock (``cluster_fanout_seconds``); the shards are
        charged on the critical-path clock (see :meth:`_fan_out`).
        Flow-cache hits short-circuit at the frontend and charge no
        shard at all.
        """
        batch = self._plan.checked_batch(addresses)
        self._tick()
        self._batches += 1
        count = len(batch)
        if not count:
            return array("q")
        if self._traffic is not None:
            self._traffic.observe(batch)
            self._autoscale_step(count)
        started = time.perf_counter()
        if self._flow_cache is None:
            labels = self._fan_out(batch)
        else:
            labels = self._fan_out_cached(batch)
        self._lookups += count
        elapsed = time.perf_counter() - started
        self._wall_lookup_seconds += elapsed
        self._obs_fanout.observe(elapsed)
        return labels

    def _fan_out(self, batch):
        """Split a checked batch by owner, serve each slice through its
        shard's packed path and scatter-merge the labels in input order.

        The batch is charged the slowest shard's serving time — the
        critical path a one-worker-per-shard deployment would observe —
        while the summed busy time feeds ``parallel_efficiency``.
        """
        parts = []
        critical = 0.0
        for index, (positions, slice_) in self._plan.split(batch).items():
            server = self._shards[index].server
            lookup_before = server.lookup_seconds
            update_before = server.update_seconds
            parts.append((positions, server.lookup_batch_packed(slice_)))
            spent = server.lookup_seconds - lookup_before
            # Patch-log drains inside the shard are churn-induced work.
            self._update_seconds += server.update_seconds - update_before
            self._busy_lookup_seconds += spent
            self._obs_shard_busy[index].add(spent)
            if spent > critical:
                critical = spent
        self._lookup_seconds += critical
        return merge_labels(len(batch), parts)

    def _fan_out_cached(self, batch):
        """Probe the flow cache per address; only the misses fan out,
        and their answers fill the cache."""
        cache = self._flow_cache
        get = cache.get
        hit_positions: List[int] = []
        hit_labels = array("q")
        miss_positions: List[int] = []
        misses: List[int] = []
        addresses = _ints(batch)
        for position, address in enumerate(addresses):
            label = get(address)
            if label is MISS:
                miss_positions.append(position)
                misses.append(address)
            else:
                hit_positions.append(position)
                hit_labels.append(label or 0)
        parts = [(hit_positions, hit_labels.tobytes())]
        if misses:
            served = self._fan_out(
                batch[miss_positions] if self._plan.vectorized else misses
            )
            put = cache.put
            for address, label in zip(misses, served.tolist()):
                put(address, label or None)
            parts.append((miss_positions, served.tobytes()))
        return merge_labels(len(addresses), parts)

    # ---------------------------------------------------------------- updates

    def apply_update(self, op: UpdateOp) -> bool:
        """Route one operation to every shard covering its prefix.

        The cluster oracle applies the operation first (bogus
        withdrawals are skipped cluster-wide, so no shard ever sees
        them); accepted operations then fan out to the owning shard(s)
        — one in the common case, several when the prefix spans a cut,
        all of them under hash partitioning. The fan-out is charged the
        slowest shard's update time (the shards apply concurrently in a
        deployment) plus the oracle edit.
        """
        started = time.perf_counter()
        try:
            self._control.update(op.prefix, op.length, op.label)
        except KeyError:
            self._updates_skipped += 1
            self._update_seconds += time.perf_counter() - started
            return False
        self._update_seconds += time.perf_counter() - started
        owners = self._plan.owners(op.prefix, op.length)
        critical = 0.0
        for index in owners:
            server = self._shards[index].server
            update_before = server.update_seconds
            server.apply_update(op)
            spent = server.update_seconds - update_before
            if spent > critical:
                critical = spent
        self._update_seconds += critical
        if self._pending_plan is not None:
            # Replacement shards already built from an older control
            # snapshot must see this update too, or the flip would
            # time-travel. Restricted servers absorb out-of-range ops
            # harmlessly (withdrawals of absent routes are skipped).
            for server in self._pending_built:
                if server is not None:
                    server.apply_update(op)
        if self._flow_cache is not None:
            self._flow_cache.invalidate()
        self._updates_applied += 1
        self._fanout_total += len(owners)
        self._tick()
        if self._pending_plan is not None:
            self._advance_replan()
        if self._updates_applied % self._coordinator.rebuild_every == 0:
            self._sample_size()
        return True

    def quiesce(self) -> None:
        """Drain every shard's update plane (still one swap at a time),
        completing any in-flight re-plan first so the flipped shards
        are the ones drained."""
        while self._pending_plan is not None:
            self._advance_replan()
        for shard in self._shards:
            if shard.server.pending:
                self._swap(shard)

    # -------------------------------------------------------------- autoscale

    def _autoscale_step(self, batch_size: int) -> None:
        """One control-loop step per lookup batch: advance an in-flight
        re-plan by one shard, or check drift at the policy cadence."""
        if self._pending_plan is not None:
            self._lookups_during_replan += batch_size
            self._advance_replan()
            return
        policy = self._policy
        if (
            self._plan.mode != "prefix"
            or self._plan.shards < 2
            or self._batches % policy.check_every
            or self._traffic.total < policy.min_window
            or self._lookups - self._last_replan_lookups < policy.cooldown
        ):
            return
        imbalance = self._traffic.imbalance(self._plan)
        self._obs_imbalance.set(imbalance)
        if imbalance <= policy.imbalance_threshold:
            return
        plan = plan_cluster(
            self._control,
            self._plan.shards,
            mode="prefix",
            traffic=self._traffic.snapshot(),
            hot_share=policy.hot_share,
            max_hot=policy.max_hot,
            spray_seed=policy.spray_seed,
        )
        if plan.bounds == self._plan.bounds and plan.hot == self._plan.hot:
            # The observed skew already matches the serving plan as well
            # as the grid can: start a fresh window instead of churning.
            self._traffic.reset()
            self._last_replan_lookups = self._lookups
            return
        self._pending_plan = plan
        self._pending_built = [None] * plan.shards
        self._lookups_during_replan += batch_size

    def _advance_replan(self) -> None:
        """Build ONE replacement shard off the lookup path (the epoch
        coordinator's staggering applied to whole shards); flip the
        plan atomically once the last one stands. The old plan serves
        every batch in between — a re-plan never pauses the cluster."""
        plan = self._pending_plan
        built = self._pending_built
        try:
            index = built.index(None)
        except ValueError:  # pragma: no cover - flip happens on last build
            index = -1
        if index >= 0:
            started = time.perf_counter()
            lo, hi = plan.bounds[index], plan.bounds[index + 1]
            total_before = self._total_size_bits() + sum(
                server.representation.size_bits()
                for server in built
                if server is not None
            )
            restricted = (
                self._control.copy()
                if (lo, hi) == (0, 1 << plan.width)
                else restrict_fib(self._control, lo, hi, extra=plan.hot)
            )
            server = FibServer(
                self.name,
                restricted,
                options=self._options,
                rebuild_every=self._rebuild_every,
                batched=self._batched,
                measure_staleness=self._measure_staleness,
                auto_rebuild=False,
                obs=self._obs,
            )
            built[index] = server
            self._replan_seconds += time.perf_counter() - started
            # Both generations overlap while the re-plan is in flight.
            self._note_peak(total_before + server.representation.size_bits())
        if all(server is not None for server in built):
            self._finish_replan()

    def _finish_replan(self) -> None:
        plan = self._pending_plan
        shards = [
            ClusterShard(
                index,
                plan.bounds[index],
                plan.bounds[index + 1],
                len(server.control),
                server,
            )
            for index, server in enumerate(self._pending_built)
        ]
        self._plan = plan
        self._shards = shards
        self._coordinator = EpochCoordinator(
            shards, self._rebuild_every, on_swap=self._on_generation_swap
        )
        self._pending_plan = None
        self._pending_built = []
        self._replans += 1
        self._obs_replans.inc()
        self._last_replan_lookups = self._lookups
        if self._traffic is not None:
            self._traffic.reset()
        if self._flow_cache is not None:
            self._flow_cache.invalidate()

    def _on_generation_swap(self, index: int) -> None:
        """Epoch-swap hook: a shard just rolled a new generation, so any
        frontend-cached labels may describe the old one."""
        if self._flow_cache is not None:
            self._flow_cache.invalidate()

    # ------------------------------------------------------------ coordinator

    def _tick(self) -> None:
        """Give the coordinator its per-event chance to stagger a swap,
        and account the epoch overlap into the cluster memory peak."""
        if not self._coordinator.due():
            return
        total_before = self._total_size_bits()
        index = self._coordinator.tick()
        if index is None:  # pragma: no cover - due() just said otherwise
            return
        fresh = self._shards[index].server.representation.size_bits()
        # Only this one shard held two generations during the swap.
        self._note_peak(total_before + fresh)

    def _swap(self, shard: ClusterShard) -> None:
        total_before = self._total_size_bits()
        shard.server.rebuild()
        fresh = shard.server.representation.size_bits()
        self._note_peak(total_before + fresh)
        self._on_generation_swap(shard.index)

    # ----------------------------------------------------------------- replay

    def apply_updates(self, ops: Sequence[UpdateOp]) -> int:
        """Apply a sequence of operations; returns how many were
        accepted (the :class:`~repro.serve.plane.ServingPlane` batch
        update surface)."""
        return sum(1 for op in ops if self.apply_update(op))

    def close(self) -> None:
        """Release the shards (in-process: nothing OS-level to tear
        down; idempotent, for :class:`~repro.serve.plane.ServingPlane`
        symmetry with the worker pool)."""
        self._shards = list(self._shards)  # no-op; keeps reports valid

    def __enter__(self) -> "FibCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def replay(self, events: Sequence[ServeEvent]) -> None:
        """Run one scenario script (see :mod:`repro.serve.scenarios`)."""
        for event in events:
            if event.is_lookup:
                self.lookup_batch(event.addresses)
            else:
                self.apply_update(event.op)

    def parity_fraction(self, addresses: Sequence[int]) -> float:
        """Fraction of probe addresses agreeing with the cluster oracle
        (route each probe to its owning shard, compare labels)."""
        if not addresses:
            return 1.0
        oracle = self._control.lookup
        agreed = 0
        for index, (positions, slice_) in self._plan.group(addresses).items():
            served = self._shards[index].server.representation.lookup_batch(slice_)
            agreed += sum(
                1 for address, label in zip(slice_, served) if label == oracle(address)
            )
        return agreed / len(addresses)

    # ---------------------------------------------------------------- metrics

    def _total_size_bits(self) -> int:
        return sum(
            shard.server.representation.size_bits() for shard in self._shards
        )

    def _note_peak(self, total_bits: int) -> None:
        if total_bits > self._peak_size_bits:
            self._peak_size_bits = total_bits

    def _sample_size(self) -> None:
        self._note_peak(self._total_size_bits())

    @property
    def replicated_routes(self) -> int:
        """Routes currently present in more than one shard, from the
        live control FIB (churn can announce or withdraw
        boundary-spanning routes, so this is recomputed, not cached)."""
        if self._plan.shards == 1:
            return 0
        if self._plan.mode == "hash":
            return len(self._control)
        crossing = {
            (route.prefix, route.length)
            for route in boundary_routes(self._control, self._plan.bounds)
        }
        if self._plan.hot:
            width = self._plan.width
            hot = self._plan.hot
            for route in self._control:
                span_lo, span_hi = prefix_span(route.prefix, route.length, width)
                if any(span_lo < hi and lo < span_hi for lo, hi in hot):
                    crossing.add((route.prefix, route.length))
        return len(crossing)

    def report(
        self, scenario: str = "", final_parity: Optional[float] = None
    ) -> ClusterReport:
        """Aggregate the shard counters into a :class:`ClusterReport`."""
        self._sample_size()
        shard_rows: List[dict] = []
        stale = mismatches = rebuilds = generation = pending = size = 0
        rebuild_seconds = 0.0
        rebuild_cycles = 0.0
        for shard in self._shards:
            record = shard.server.report(scenario=scenario)
            stale += record.stale_lookups
            mismatches += record.label_mismatches
            rebuilds += record.rebuilds
            generation += record.generation
            pending += record.pending_updates
            size += record.size_bits
            rebuild_seconds += record.rebuild_seconds
            rebuild_cycles += record.rebuild_cycles
            shard_rows.append(
                {
                    "shard": shard.index,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "routes": len(shard.server.control),  # live, post-churn
                    "lookups": record.lookups,
                    "lookup_seconds": record.lookup_seconds,
                    "staleness": record.staleness,
                    "rebuilds": record.rebuilds,
                    "generation": record.generation,
                    "size_bits": record.size_bits,
                    "peak_size_bits": record.peak_size_bits,
                }
            )
        applied = self._updates_applied
        return ClusterReport(
            name=self.name,
            title=self._spec.title,
            scenario=scenario,
            incremental=self.incremental,
            lookups=self._lookups,
            batches=self._batches,
            updates_applied=applied,
            updates_skipped=self._updates_skipped,
            rebuilds=rebuilds,
            generation=generation,
            pending_updates=pending,
            stale_lookups=stale,
            label_mismatches=mismatches,
            lookup_seconds=self._lookup_seconds,
            update_seconds=self._update_seconds,
            rebuild_seconds=rebuild_seconds + self._replan_seconds,
            size_bits=size,
            peak_size_bits=max(self._peak_size_bits, size),
            rebuild_cycles=rebuild_cycles,
            final_parity=final_parity,
            shards=self._plan.shards,
            partition=self._plan.mode,
            replicated_routes=self.replicated_routes,
            update_fanout=(self._fanout_total / applied) if applied else 0.0,
            busy_lookup_seconds=self._busy_lookup_seconds,
            wall_lookup_seconds=self._wall_lookup_seconds,
            coordinator_swaps=self._coordinator.swaps,
            shard_rows=tuple(shard_rows),
            replans=self._replans,
            lookups_during_replan=self._lookups_during_replan,
            hot_ranges=len(self._plan.hot),
            # ``is not None``: FlowCache has __len__, so a freshly
            # invalidated (empty) cache is falsy and would zero these.
            flow_cache_lookups=(
                self._flow_cache.lookups if self._flow_cache is not None else 0
            ),
            flow_cache_hits=(
                self._flow_cache.hits if self._flow_cache is not None else 0
            ),
            flow_cache_evictions=(
                self._flow_cache.evictions
                if self._flow_cache is not None
                else 0
            ),
            obs=self._obs.snapshot() if self._obs.enabled else None,
        )


def serve_cluster_scenario(
    name: str,
    fib: Fib,
    events: Sequence[ServeEvent],
    *,
    scenario: str = "",
    shards: int = 2,
    partition: str = "prefix",
    options: Optional[Dict[str, Any]] = None,
    rebuild_every: int = DEFAULT_REBUILD_EVERY,
    batched: bool = True,
    measure_staleness: bool = True,
    parity_probes: Sequence[int] = (),
    granularity: Optional[int] = None,
    autoscale: Optional[AutoscalePolicy] = None,
    obs: Registry = NULL_REGISTRY,
) -> ClusterReport:
    """Replay one script through one sharded cluster, end to end.

    The cluster twin of :func:`~repro.serve.server.serve_scenario`:
    build the cluster, replay the script, quiesce every shard, run the
    post-quiescence parity probes against the cluster oracle, report.
    """
    cluster = FibCluster(
        name,
        fib,
        shards=shards,
        partition=partition,
        options=options,
        rebuild_every=rebuild_every,
        batched=batched,
        measure_staleness=measure_staleness,
        granularity=granularity,
        autoscale=autoscale,
        obs=obs,
    )
    cluster.replay(events)
    cluster.quiesce()
    parity = cluster.parity_fraction(parity_probes) if parity_probes else None
    return cluster.report(scenario=scenario, final_parity=parity)

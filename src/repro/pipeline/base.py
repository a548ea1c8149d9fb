"""The common compressed-FIB interface every representation adapts to.

The paper compares many FIB representations — tabular, Patricia,
LC-trie, ORTC, shape graphs, XBW-b, prefix DAGs, multibit DAGs and the
serialized kernel image — but each grew its own ad-hoc API in the seed
codebase. :class:`CompressedFib` is the one protocol they all share now:

* ``name`` — the registry key of the representation;
* ``build``-time construction from a tabular :class:`~repro.core.fib.Fib`
  (done by the registry's :func:`~repro.pipeline.registry.build`);
* ``lookup`` / ``lookup_batch`` — longest-prefix match: the scalar
  lookup is the reference oracle, and the batch path runs the
  representation's compiled flat program (see
  :mod:`repro.pipeline.flat`);
* ``size_bits`` — the paper's analytic memory model for the structure;
* optional ``apply_update`` (incremental updates, §4.3) and
  ``lookup_trace`` (byte-address streams for the cache simulator).

Every analysis, simulator, CLI and benchmark layer talks to FIB
representations through this protocol and the registry, so a new
backend plugs into all of them with one decorated adapter class.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable


@runtime_checkable
class CompressedFib(Protocol):
    """Structural protocol of one built FIB representation."""

    name: str

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix match for one address (None = no route)."""
        ...

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Longest-prefix match for a whole trace, label per address."""
        ...

    def size_bits(self) -> int:
        """Size of the representation under the paper's memory model."""
        ...


@runtime_checkable
class UpdatableFib(Protocol):
    """Optional extension: incremental route updates (§4.3)."""

    def apply_update(self, op) -> None:
        """Apply one :class:`~repro.datasets.updates.UpdateOp`."""
        ...


@runtime_checkable
class TraceableFib(Protocol):
    """Optional extension: byte-address traces for the cache simulator."""

    def lookup_trace(self, address: int) -> Tuple[Optional[int], List[int]]:
        """LPM plus the byte addresses touched during the lookup."""
        ...


def supports_updates(representation) -> bool:
    """True when the representation implements ``apply_update``."""
    return callable(getattr(representation, "apply_update", None))


def supports_trace(representation) -> bool:
    """True when the representation implements ``lookup_trace``."""
    return callable(getattr(representation, "lookup_trace", None))


def supports_flat(representation) -> bool:
    """True when the representation exposes the compiled flat plane
    (``flat_plane``)."""
    return callable(getattr(representation, "flat_plane", None))


def flat_program(representation):
    """The representation's compiled program, or None when it has no
    ``flat_plane`` capability."""
    plane = getattr(representation, "flat_plane", None)
    return plane() if callable(plane) else None

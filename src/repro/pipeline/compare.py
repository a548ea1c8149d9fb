"""Cross-representation parity: every backend vs. the tabular oracle.

``repro-fib compare`` (and the parity test suite) runs every registered
representation over the same address trace and checks that scalar
``lookup`` and batched ``lookup_batch`` both return exactly the labels
the tabular oracle returns — compression must be forwarding-equivalent,
bit for bit (Lemma 5's "no space/time trade-off" claim, generalized to
every representation in the registry). ``lookup_batch`` runs the
compiled flat plane, so this checks the compiler against the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.fib import Fib
from repro.pipeline import registry


@dataclass
class Mismatch:
    """One disagreement with the oracle."""

    address: int
    expected: Optional[int]
    got: Optional[int]
    path: str  # "lookup" or "lookup_batch"


@dataclass
class CompareRow:
    """Parity result of one representation over one trace."""

    name: str
    title: str
    size_kb: float
    build_seconds: float
    checked: int
    mismatch_count: int
    mismatches: List[Mismatch]  # stored examples, capped; count is exact

    @property
    def parity(self) -> float:
        """Fraction of checks agreeing with the oracle (1.0 = perfect)."""
        if not self.checked:
            return 1.0
        return 1.0 - self.mismatch_count / self.checked

    @property
    def ok(self) -> bool:
        return not self.mismatch_count


def compare_representations(
    fib: Fib,
    addresses: Sequence[int],
    only: Optional[List[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    scalar_sample: int = 200,
    mismatch_cap: int = 20,
) -> List[CompareRow]:
    """Build each registered representation and check label parity.

    The full trace goes through ``lookup_batch``; the first
    ``scalar_sample`` addresses additionally go through scalar
    ``lookup`` so a batch fast path cannot mask a scalar bug (or vice
    versa). Every disagreement counts toward ``mismatch_count`` (and
    the parity fraction); at most ``mismatch_cap`` example
    :class:`Mismatch` records are stored per representation to keep
    reports readable.
    """
    oracle = [fib.lookup(address) for address in addresses]
    rows: List[CompareRow] = []
    names = only if only is not None else registry.names()
    overrides = overrides or {}
    for name in names:
        spec = registry.get(name)
        started = time.perf_counter()
        representation = registry.build(name, fib, **overrides.get(name, {}))
        build_seconds = time.perf_counter() - started
        mismatches: List[Mismatch] = []
        mismatch_count = 0
        checked = 0

        batched = list(representation.lookup_batch(addresses))
        checked += len(addresses)
        if len(batched) != len(addresses):
            # A wrong-length batch is wholesale breakage, not a zip-short
            # pass: every address counts as disagreeing.
            mismatch_count += len(addresses)
            mismatches.append(
                Mismatch(
                    address=addresses[0] if addresses else 0,
                    expected=None,
                    got=None,
                    path=f"lookup_batch returned {len(batched)} labels "
                    f"for {len(addresses)} addresses",
                )
            )
        else:
            for address, want, got in zip(addresses, oracle, batched):
                if got != want:
                    mismatch_count += 1
                    if len(mismatches) < mismatch_cap:
                        mismatches.append(Mismatch(address, want, got, "lookup_batch"))
        for address, want in zip(addresses[:scalar_sample], oracle[:scalar_sample]):
            checked += 1
            got = representation.lookup(address)
            if got != want:
                mismatch_count += 1
                if len(mismatches) < mismatch_cap:
                    mismatches.append(Mismatch(address, want, got, "lookup"))

        rows.append(
            CompareRow(
                name=name,
                title=spec.title,
                size_kb=representation.size_kbytes(),
                build_seconds=build_seconds,
                checked=checked,
                mismatch_count=mismatch_count,
                mismatches=mismatches,
            )
        )
    return rows


def assert_parity(rows: Sequence[CompareRow]) -> None:
    """Raise AssertionError describing every imperfect row."""
    bad = [row for row in rows if not row.ok]
    if not bad:
        return
    lines = []
    for row in bad:
        worst = row.mismatches[0]
        lines.append(
            f"{row.name}: {row.mismatch_count}/{row.checked} mismatches, e.g. "
            f"{worst.path}({worst.address:#x}) = {worst.got!r}, "
            f"oracle says {worst.expected!r}"
        )
    raise AssertionError("representation parity broken:\n" + "\n".join(lines))

"""Synthetic virtual address space and parametric loop-trace generation.

The IR interpreter places every array a kernel declares into a single flat
address space.  Allocations are line-aligned and separated by a guard gap
so that distinct arrays never share a cache line — the same layout a
malloc-based C benchmark would see for large arrays.

The module also provides :class:`LoopSpec` / :func:`synthesize_loop_trace`,
a direct-to-events generator of annotated loop traces.  The trace fuzzer
(:mod:`repro.check.fuzz`) uses it to mint seed corpora without going
through the IR interpreter; tests use it to build minimal, fully
controlled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.constants import DEFAULT_LINE_SIZE, DEFAULT_PAGE_SIZE
from repro.common.errors import ConfigError, WorkloadError
from repro.trace.events import BlockBegin, BlockEnd, MemoryAccess, TraceEvent
from repro.trace.stream import Trace


@dataclass(frozen=True)
class Allocation:
    """One array placed in the synthetic address space.

    Attributes:
        name: array name as declared by the kernel.
        base: first byte address of the array.
        length: number of elements.
        element_size: bytes per element.
    """

    name: str
    base: int
    length: int
    element_size: int

    @property
    def size_bytes(self) -> int:
        """Total footprint of the allocation in bytes."""
        return self.length * self.element_size

    def address_of(self, index: int) -> int:
        """Byte address of ``array[index]``, bounds-checked."""
        if not 0 <= index < self.length:
            raise WorkloadError(
                f"array '{self.name}': index {index} out of range "
                f"[0, {self.length})"
            )
        return self.base + index * self.element_size


class AddressSpace:
    """Sequential, line-aligned allocator for kernel arrays.

    Args:
        base: address of the first allocation.  Defaults to one page, so
            address 0 is never handed out (it reads as a null pointer).
        guard_lines: number of unused cache lines placed between
            consecutive allocations.
    """

    def __init__(self, base: int = DEFAULT_PAGE_SIZE, guard_lines: int = 4) -> None:
        if base < 0:
            raise WorkloadError(f"address space base must be non-negative: {base}")
        self._next = _align_up(base, DEFAULT_LINE_SIZE)
        self._guard = guard_lines * DEFAULT_LINE_SIZE
        self._allocations: dict[str, Allocation] = {}

    def allocate(self, name: str, length: int, element_size: int = 8) -> Allocation:
        """Place a new array and return its allocation record."""
        if name in self._allocations:
            raise WorkloadError(f"array '{name}' allocated twice")
        if length <= 0:
            raise WorkloadError(f"array '{name}': length must be positive")
        if element_size <= 0:
            raise WorkloadError(f"array '{name}': element size must be positive")
        allocation = Allocation(name, self._next, length, element_size)
        footprint = _align_up(allocation.size_bytes, DEFAULT_LINE_SIZE)
        self._next += footprint + self._guard
        self._allocations[name] = allocation
        return allocation

    def lookup(self, name: str) -> Allocation:
        """Return the allocation for ``name``, raising if unknown."""
        try:
            return self._allocations[name]
        except KeyError:
            raise WorkloadError(f"unknown array '{name}'") from None

    @property
    def allocations(self) -> dict[str, Allocation]:
        """Mapping of array name to allocation (insertion ordered)."""
        return dict(self._allocations)


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class LoopSpec:
    """One annotated loop in a synthetic trace.

    Each iteration emits ``BLOCK_BEGIN(block_id)``, then ``accesses``
    memory events walking ``base`` with the given byte ``stride`` (the
    walk continues across iterations, streaming through memory like a
    loop over a large array), then ``BLOCK_END(block_id)``.

    Attributes:
        block_id: static code block identifier for the markers.
        base: byte address of the first access.
        stride: byte distance between consecutive accesses.  May be
            negative (a backwards walk) but the walk must stay at
            non-negative addresses.
        accesses: memory accesses per iteration.
        iterations: number of loop iterations.
        pc_base: pc of the first static access; access ``j`` of every
            iteration uses ``pc_base + j``.
        write_every: every ``write_every``-th access is a store
            (0 = loads only).
        instructions_per_access: committed-instruction gap between
            consecutive accesses.
    """

    block_id: int
    base: int
    stride: int
    accesses: int
    iterations: int
    pc_base: int = 0x40_0000
    write_every: int = 0
    instructions_per_access: int = 4

    def __post_init__(self) -> None:
        # A zero-length loop (no iterations, or iterations with no body)
        # is a specification bug, not an empty trace: fuzz seeds used to
        # silently produce event-free traces that exercised nothing.
        if self.iterations <= 0:
            raise ConfigError(
                f"loop {self.block_id}: zero-length loop "
                f"(iterations={self.iterations}; must be positive)"
            )
        if self.accesses <= 0:
            raise ConfigError(
                f"loop {self.block_id}: zero-length loop body "
                f"(accesses={self.accesses}; must be positive)"
            )
        if self.base < 0:
            raise ConfigError(f"loop {self.block_id}: negative base address")
        if self.instructions_per_access <= 0:
            raise ConfigError(
                f"loop {self.block_id}: instructions_per_access must be positive"
            )
        if self.write_every < 0:
            raise ConfigError(f"loop {self.block_id}: write_every must be >= 0")
        last = self.base + self.stride * (self.accesses * self.iterations - 1)
        if last < 0:
            raise ConfigError(
                f"loop {self.block_id}: backwards walk underflows address 0 "
                f"(base={self.base:#x}, stride={self.stride})"
            )


def synthesize_loop_trace(
    specs: Sequence[LoopSpec],
    name: str = "synthetic",
    tail_instructions: int = 16,
) -> Trace:
    """Build a validated trace from loop specs, run back to back.

    Loops execute sequentially in the order given; block markers are
    balanced and non-nested by construction and icounts are strictly
    monotonic, so the result always passes :meth:`Trace.validate`.
    """
    if not specs:
        raise ConfigError("synthesize_loop_trace: need at least one loop spec")
    events: list[TraceEvent] = []
    icount = 0
    for spec in specs:
        walk = 0
        for _ in range(spec.iterations):
            icount += 1
            events.append(BlockBegin(icount, spec.block_id))
            for access in range(spec.accesses):
                icount += spec.instructions_per_access
                address = spec.base + spec.stride * walk
                walk += 1
                is_write = (
                    spec.write_every > 0 and access % spec.write_every == spec.write_every - 1
                )
                events.append(
                    MemoryAccess(icount, spec.pc_base + access, address, is_write)
                )
            icount += 1
            events.append(BlockEnd(icount, spec.block_id))
    trace = Trace(name, events, icount + tail_instructions)
    trace.validate()
    return trace

"""Flat byte-addressed memory for the interpreter.

Scalar cells live at their byte addresses in a dictionary; layout (struct
offsets, array strides) is computed statically from the LP64 size model in
:mod:`repro.cfront.ctypes`.  The allocator is a bump allocator that never
reuses addresses and aligns every block to 16 bytes — the paper's SharC
makes malloc do exactly this so that no two objects share a shadow granule
(Section 4.5).

Never reusing addresses is deliberate: dangling pointers (whose absence the
paper assumes via Deputy/Heapsafe) cannot corrupt unrelated objects'
reference counts or shadow state in our runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import compress, repeat, takewhile
from operator import is_not

from repro.errors import InterpError, Loc

PAGE_SIZE = 4096
GRANULE = 16

#: marks the addresses of a gathered range that have no cell
_GAP = object()


@dataclass
class Block:
    """One allocation (heap block, global, or stack frame slab)."""

    start: int
    size: int
    kind: str  # "heap" | "global" | "stack" | "literal"
    freed: bool = False
    #: ``start + size``, precomputed — every access bounds-checks it
    end: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.end = self.start + self.size


#: an empty block: no address is inside it, so it fills the lookup
#: cache until real blocks are resolved
_NO_BLOCK = Block(0, 0, "none")


class AddressSpace:
    """Memory cells plus the allocation map."""

    def __init__(self) -> None:
        self.cells: dict[int, object] = {}
        self._brk = 0x1000
        self.blocks: dict[int, Block] = {}
        self._block_starts: list[int] = []  # sorted, for bisect lookup
        #: the two most recently resolved blocks, newest first — scalar
        #: accesses are heavily local, and a thread typically alternates
        #: between its stack slab and one data block, so this avoids a
        #: bisect per read/write
        self._last_block = _NO_BLOCK
        self._prev_block = _NO_BLOCK
        #: pages written/read by the program itself (memory-overhead base)
        self.pages_touched: set[int] = set()

    # -- allocation -------------------------------------------------------

    def alloc(self, size: int, kind: str = "heap") -> int:
        """Allocates ``size`` bytes, 16-byte aligned, never reused."""
        size = max(1, size)
        start = (self._brk + GRANULE - 1) // GRANULE * GRANULE
        self._brk = start + size
        block = Block(start, size, kind)
        self.blocks[start] = block
        self._block_starts.append(start)
        return start

    def free(self, addr: int, loc: Loc | None = None) -> Block:
        block = self.blocks.get(addr)
        if block is None:
            raise InterpError(f"free() of non-block address 0x{addr:x}",
                              loc)
        if block.freed:
            raise InterpError(f"double free of 0x{addr:x}", loc)
        block.freed = True
        return block

    def block_of(self, addr: int) -> Block | None:
        """The block containing ``addr``, if any.  The last two resolved
        blocks are cached: consecutive accesses overwhelmingly land in
        one of them, so most lookups are a few comparisons."""
        block = self._last_block
        if block.start <= addr < block.end:
            return block
        block = self._prev_block
        if not block.start <= addr < block.end:
            idx = bisect.bisect_right(self._block_starts, addr) - 1
            if idx < 0:
                return None
            block = self.blocks[self._block_starts[idx]]
            if not block.start <= addr < block.end:
                return None
        self._prev_block = self._last_block
        self._last_block = block
        return block

    def check_access(self, addr: int, loc: Loc | None = None) -> None:
        """Traps wild and use-after-free accesses (the memory-safety the
        paper assumes an external tool provides)."""
        block = self.block_of(addr)
        if block is None:
            raise InterpError(f"wild access at 0x{addr:x}", loc)
        if block.freed:
            raise InterpError(f"use after free at 0x{addr:x}", loc)

    # -- typed scalar access -----------------------------------------------

    def read(self, addr: int, loc: Loc | None = None) -> object:
        block = self._last_block
        if not block.start <= addr < block.end:
            self.check_access(addr, loc)
        elif block.freed:
            raise InterpError(f"use after free at 0x{addr:x}", loc)
        self.pages_touched.add(addr // PAGE_SIZE)
        return self.cells.get(addr, 0)

    def write(self, addr: int, value: object,
              loc: Loc | None = None) -> object:
        """Writes a scalar; returns the previous value (for RC logging)."""
        block = self._last_block
        if not block.start <= addr < block.end:
            self.check_access(addr, loc)
        elif block.freed:
            raise InterpError(f"use after free at 0x{addr:x}", loc)
        self.pages_touched.add(addr // PAGE_SIZE)
        old = self.cells.get(addr, 0)
        self.cells[addr] = value
        return old

    def peek(self, addr: int) -> object:
        """Reads without page accounting or safety checks (runtime
        internals such as the RC collector)."""
        return self.cells.get(addr, 0)

    # -- byte-range helpers (memcpy / memset / strings) ----------------------

    def copy_range(self, dst: int, src: int, n: int,
                   loc: Loc | None = None) -> None:
        """Copies the cells within [src, src+n) preserving offsets.

        Cells are typed scalars, so this mirrors memcpy for the type-safe
        programs the paper targets (same layout on both sides).
        """
        self.check_access(src, loc)
        self.check_access(dst, loc)
        if n > 0:
            self.check_access(src + n - 1, loc)
            self.check_access(dst + n - 1, loc)
        cells = self.cells
        targets = range(dst, dst + n)
        # The source is gathered before anything is written, so an
        # overlapping copy sees the old bytes.
        values = list(map(cells.get, range(src, src + n), repeat(_GAP)))
        updates = dict(compress(zip(targets, values),
                                map(is_not, values, repeat(_GAP))))
        # Destination cells the source has no cell for become 0.
        cells.update(dict.fromkeys(
            (cells.keys() & targets).difference(updates), 0))
        cells.update(updates)
        if n > 0:
            self._touch_span(dst, n)

    def set_range(self, dst: int, value: int, n: int,
                  loc: Loc | None = None) -> None:
        """memset: writes ``value`` into every *byte* cell of the range.

        Existing wider cells in the range are overwritten with the byte
        value, which matches the dominant uses (zeroing buffers).
        """
        self.check_access(dst, loc)
        if n > 0:
            self.check_access(dst + n - 1, loc)
        self.cells.update(dict.fromkeys(range(dst, dst + n), value))
        if n > 0:
            self._touch_span(dst, n)

    def _live_span(self, addr: int, n: int) -> bool:
        """[addr, addr+n) is non-empty and inside one live block, now
        cached as ``n`` per-byte accesses would leave it."""
        block = self.block_of(addr) if n > 0 else None
        return block is not None and not block.freed and addr + n <= block.end

    def _touch_span(self, addr: int, n: int) -> None:
        self.pages_touched.update(
            range(addr // PAGE_SIZE, (addr + n - 1) // PAGE_SIZE + 1))

    def write_bytes(self, addr: int, data: bytes,
                    loc: Loc | None = None) -> None:
        """Same effects as :meth:`write` per byte, errors included."""
        if self._live_span(addr, len(data)):
            self.cells.update(zip(range(addr, addr + len(data)), data))
            self._touch_span(addr, len(data))
            return
        for i, b in enumerate(data):
            self.write(addr + i, b, loc)

    def read_bytes(self, addr: int, n: int,
                   loc: Loc | None = None) -> bytes:
        """The cells' low bytes; same effects as :meth:`read` per byte."""
        if self._live_span(addr, n):
            values = list(map(self.cells.get, range(addr, addr + n),
                              repeat(0)))
            try:
                data = bytes(values)
            except (TypeError, ValueError):
                try:
                    data = bytes([int(v) & 0xFF for v in values])
                except (TypeError, ValueError, OverflowError):
                    data = None  # the loop below raises at that byte
            if data is not None:
                self._touch_span(addr, n)
                return data
        return bytes(int(self.read(addr + i, loc)) & 0xFF
                     for i in range(n))

    def read_c_string(self, addr: int, loc: Loc | None = None,
                      limit: int = 1 << 20) -> str:
        """Reads a NUL-terminated byte string."""
        block = self.block_of(addr) if limit > 0 else None
        if block is not None and not block.freed:
            # A string ending inside its live block: same effects as the
            # per-byte reads below, which handle every other case.
            end = min(block.end, addr + limit)
            get = self.cells.get
            chars = list(takewhile(bool, map(get, range(addr, end),
                                             repeat(0))))
            stop = addr + len(chars)
            if stop < end and isinstance(get(stop, 0), int) \
                    and all(map(isinstance, chars, repeat(int))):
                self._touch_span(addr, len(chars) + 1)
                return bytes([c & 0xFF for c in chars]).decode("latin-1")
        out = []
        for i in range(limit):
            b = self.read(addr + i, loc)
            if not isinstance(b, int):
                raise InterpError(
                    f"non-character cell in string at 0x{addr + i:x}", loc)
            if b == 0:
                return "".join(map(chr, out))
            out.append(b & 0xFF)
        raise InterpError(f"unterminated string at 0x{addr:x}", loc)

    def alloc_c_string(self, text: str, kind: str = "literal") -> int:
        addr = self.alloc(len(text) + 1, kind)
        self.write_bytes(addr, text.encode("latin-1", "replace") + b"\0")
        return addr

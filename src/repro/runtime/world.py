"""The simulated external world the Table 1 workloads interact with.

The paper's benchmarks touch files (pfscan, pbzip2, fftw), the network
(aget, stunnel, dillo), and the screen.  We cannot reproduce the authors'
home directory, a Linux kernel mirror, or their DNS, so each workload
configures a :class:`World` with synthetic *items* (named byte blobs
standing in for files/URLs) and *channels* (bidirectional byte streams
standing in for sockets).

I/O latency matters for the shape of Table 1: aget was network-bound, so
SharC's overhead was unmeasurable there.  ``read_latency``/
``write_latency`` charge the calling thread extra steps per operation,
letting workloads be I/O-bound or CPU-bound exactly as their originals
were.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field


@functools.lru_cache(maxsize=16)
def _random_contents(count: int, size: int, seed: int,
                     alphabet: bytes) -> tuple[bytes, ...]:
    """The file contents of :meth:`World.with_random_files`.  Bytes are
    immutable, so every world built from one key shares them; workload
    models build a fresh world per schedule."""
    rng = random.Random(seed)
    return tuple(bytes(rng.choice(alphabet) for _ in range(size))
                 for _ in range(count))


@dataclass
class WorldItem:
    """One named blob (file / URL / document)."""

    name: str
    data: bytes


class World:
    """Synthetic files + channels, with configurable latency."""

    def __init__(self, items: list[WorldItem] | None = None,
                 read_latency: int = 0, write_latency: int = 0,
                 seed: int = 0) -> None:
        self.items: list[WorldItem] = list(items or [])
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.rng = random.Random(seed)
        #: channel id -> pending inbound bytes
        self.inbound: dict[int, bytearray] = {}
        #: channel id -> everything the program sent
        self.outbound: dict[int, bytearray] = {}
        #: everything written to items (index -> bytes)
        self.written: dict[int, bytearray] = {}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def with_random_files(count: int, size: int, seed: int = 0,
                          read_latency: int = 0,
                          alphabet: bytes = b"abcdefgh \n") -> "World":
        """A world of ``count`` pseudo-files of ``size`` bytes each."""
        items = [WorldItem(f"file{i:03d}.txt", data) for i, data in
                 enumerate(_random_contents(count, size, seed, alphabet))]
        return World(items, read_latency=read_latency, seed=seed)

    def feed_channel(self, chan: int, data: bytes) -> None:
        """Queues inbound bytes on a channel (e.g. client -> stunnel)."""
        self.inbound.setdefault(chan, bytearray()).extend(data)

    # -- item (file) API ----------------------------------------------------------

    def nitems(self) -> int:
        return len(self.items)

    def item_size(self, idx: int) -> int:
        if 0 <= idx < len(self.items):
            return len(self.items[idx].data)
        return 0

    def item_name(self, idx: int) -> str:
        if 0 <= idx < len(self.items):
            return self.items[idx].name
        return ""

    def read(self, idx: int, off: int, n: int) -> bytes:
        if not (0 <= idx < len(self.items)):
            return b""
        data = self.items[idx].data
        return data[off:off + n]

    def write(self, idx: int, data: bytes) -> int:
        self.written.setdefault(idx, bytearray()).extend(data)
        return len(data)

    # -- channel (socket) API --------------------------------------------------------

    def recv_ready(self, chan: int) -> bool:
        return bool(self.inbound.get(chan))

    def recv(self, chan: int, n: int) -> bytes:
        queue = self.inbound.get(chan)
        if not queue or n <= 0:
            return b""
        out = bytes(queue[:n])
        del queue[:n]
        return out

    def send(self, chan: int, data: bytes) -> int:
        self.outbound.setdefault(chan, bytearray()).extend(data)
        return len(data)

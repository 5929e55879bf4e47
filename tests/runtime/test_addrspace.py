"""Tests for the flat address space and allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InterpError, Loc
from repro.runtime.addrspace import PAGE_SIZE, AddressSpace, GRANULE


@pytest.fixture
def space():
    return AddressSpace()


class TestAllocation:
    def test_blocks_are_16_byte_aligned(self, space):
        for size in (1, 3, 17, 100):
            addr = space.alloc(size)
            assert addr % GRANULE == 0

    def test_blocks_never_overlap(self, space):
        a = space.alloc(24)
        b = space.alloc(8)
        assert b >= a + 24

    def test_addresses_never_reused(self, space):
        a = space.alloc(16)
        space.free(a)
        b = space.alloc(16)
        assert b != a

    def test_zero_size_gets_storage(self, space):
        addr = space.alloc(0)
        assert space.blocks[addr].size == 1

    @given(st.lists(st.integers(min_value=1, max_value=512),
                    min_size=1, max_size=40))
    def test_distinct_granules_per_block(self, sizes):
        space = AddressSpace()
        granules = set()
        for size in sizes:
            addr = space.alloc(size)
            first = addr >> 4
            # The paper aligns malloc to 16 bytes so objects never share
            # a shadow granule.
            assert first not in granules
            granules.update(range(first, (addr + size - 1 >> 4) + 1))


class TestFree:
    def test_free_marks_block(self, space):
        addr = space.alloc(8)
        block = space.free(addr)
        assert block.freed

    def test_double_free_raises(self, space):
        addr = space.alloc(8)
        space.free(addr)
        with pytest.raises(InterpError, match="double free"):
            space.free(addr)

    def test_free_of_wild_address_raises(self, space):
        with pytest.raises(InterpError):
            space.free(0xDEAD)

    def test_use_after_free_raises(self, space):
        addr = space.alloc(8)
        space.write(addr, 1)
        space.free(addr)
        with pytest.raises(InterpError, match="use after free"):
            space.read(addr)


class TestAccess:
    def test_uninitialized_reads_zero(self, space):
        addr = space.alloc(8)
        assert space.read(addr) == 0

    def test_write_returns_old_value(self, space):
        addr = space.alloc(8)
        assert space.write(addr, 5) == 0
        assert space.write(addr, 9) == 5

    def test_wild_access_raises(self, space):
        with pytest.raises(InterpError, match="wild"):
            space.read(0x99999)

    def test_block_of_interior_pointer(self, space):
        addr = space.alloc(64)
        block = space.block_of(addr + 63)
        assert block is not None and block.start == addr
        assert space.block_of(addr + 64) is None or \
            space.block_of(addr + 64).start != addr

    def test_peek_skips_checks(self, space):
        assert space.peek(0xFFFF) == 0


class TestRanges:
    def test_copy_range_preserves_offsets(self, space):
        src = space.alloc(16)
        dst = space.alloc(16)
        space.write(src + 0, 10)
        space.write(src + 8, 20)
        space.copy_range(dst, src, 16)
        assert space.read(dst + 0) == 10
        assert space.read(dst + 8) == 20

    def test_copy_range_clears_stale_destination(self, space):
        src = space.alloc(8)
        dst = space.alloc(8)
        space.write(dst + 4, 99)
        space.copy_range(dst, src, 8)
        assert space.read(dst + 4) == 0

    def test_copy_range_bounds_checked(self, space):
        src = space.alloc(8)
        dst = space.alloc(4)
        with pytest.raises(InterpError):
            space.copy_range(dst, src, 8)

    def test_set_range(self, space):
        addr = space.alloc(8)
        space.set_range(addr, 7, 8)
        assert all(space.read(addr + i) == 7 for i in range(8))


class TestStrings:
    def test_alloc_and_read_string(self, space):
        addr = space.alloc_c_string("hello")
        assert space.read_c_string(addr) == "hello"

    def test_empty_string(self, space):
        addr = space.alloc_c_string("")
        assert space.read_c_string(addr) == ""

    def test_unterminated_string_raises(self, space):
        addr = space.alloc(4)
        space.set_range(addr, ord("x"), 4)
        with pytest.raises(InterpError):
            space.read_c_string(addr, limit=4)

    @given(st.text(alphabet=st.characters(min_codepoint=1,
                                          max_codepoint=255),
                   max_size=64))
    def test_string_roundtrip(self, text):
        space = AddressSpace()
        addr = space.alloc_c_string(text)
        assert space.read_c_string(addr) == \
            text.encode("latin-1", "replace").decode("latin-1")


#: cell contents a program can leave in memory: bytes, wider ints,
#: floats, a function pointer (``int()`` raises TypeError) and an
#: infinity (OverflowError)
_CELLS = st.one_of(st.integers(-300, 300), st.floats(-1e3, 1e3),
                   st.just(("fn", "f")), st.just(float("inf")))


@st.composite
def _layouts(draw):
    """(blocks, freed, cells, warm, addr, n): random block sizes (one
    may span a page boundary), freed blocks, pre-filled cells, the
    cached block, and a byte range that may start anywhere around a
    block, run past its end, or be wild."""
    sizes = draw(st.lists(st.one_of(st.integers(1, 48),
                                    st.sampled_from([4100, 9000])),
                          min_size=1, max_size=5))
    freed = draw(st.sets(st.integers(0, len(sizes) - 1)))
    block = st.integers(0, len(sizes) - 1)
    cells = draw(st.lists(st.tuples(block, st.integers(0, 60), _CELLS),
                          max_size=20))
    warm = draw(st.none() | block)
    start = draw(st.one_of(
        st.tuples(block, st.integers(-4, 60)),
        st.tuples(block, st.integers(4000, 4200)),
        st.tuples(st.none(), st.sampled_from([0, 0x10, 1 << 40]))))
    n = draw(st.integers(0, 80) | st.integers(90, 300))
    return sizes, freed, cells, warm, start, n


def _build(layout):
    sizes, freed, cells, warm, (idx, off), _n = layout
    space = AddressSpace()
    starts = [space.alloc(size) for size in sizes]
    for i, o, value in cells:
        space.cells[starts[i] + o] = value
    for i in sorted(freed):
        space.free(starts[i])
    if warm is not None:
        space.block_of(starts[warm])
    addr = off if idx is None else starts[idx] + off
    return space, addr


def _outcome(space, op):
    try:
        result = op()
    except Exception as exc:  # compared, not swallowed
        result = (type(exc), str(exc))
    last = space._last_block
    return (result, dict(space.cells), set(space.pages_touched),
            None if last is None else last.start)


class TestBulkBytes:
    """``write_bytes`` / ``read_bytes`` must leave exactly the state the
    per-byte loops over ``write`` / ``read`` leave — cells, touched
    pages, the cached block, and any error with its partial effects."""

    LOC = Loc("t.c", 7, 3)

    @settings(max_examples=200, deadline=None)
    @given(layout=_layouts(), data=st.data())
    def test_write_bytes_matches_per_byte_writes(self, layout, data):
        payload = data.draw(st.binary(min_size=layout[-1],
                                      max_size=layout[-1]))
        fast, addr = _build(layout)
        slow, _ = _build(layout)

        def per_byte():
            for i, b in enumerate(payload):
                slow.write(addr + i, b, self.LOC)

        assert _outcome(fast, lambda: fast.write_bytes(
            addr, payload, self.LOC)) == _outcome(slow, per_byte)

    @settings(max_examples=200, deadline=None)
    @given(layout=_layouts())
    def test_read_bytes_matches_per_byte_reads(self, layout):
        n = layout[-1]
        fast, addr = _build(layout)
        slow, _ = _build(layout)
        assert _outcome(fast, lambda: fast.read_bytes(addr, n, self.LOC)) \
            == _outcome(slow, lambda: bytes(
                int(slow.read(addr + i, self.LOC)) & 0xFF
                for i in range(n)))

    @settings(max_examples=200, deadline=None)
    @given(layout=_layouts(), data=st.data())
    def test_copy_range_matches_per_byte_copy(self, layout, data):
        n = layout[-1]
        fast, src = _build(layout)
        slow, _ = _build(layout)
        # an overlapping destination, or one around any block
        dst = data.draw(st.one_of(
            st.integers(-24, 24).map(lambda d: src + d),
            st.tuples(st.sampled_from(sorted(fast.blocks)),
                      st.integers(-4, 60)).map(sum)))

        def per_byte():
            # memcpy's definition: bounds first, then byte i of the old
            # source, or 0 over a stale destination cell
            for a in (src, dst) + ((src + n - 1, dst + n - 1) if n > 0
                                   else ()):
                slow.check_access(a, self.LOC)
            old = dict(slow.cells)
            for i in range(n):
                if src + i in old:
                    slow.cells[dst + i] = old[src + i]
                elif dst + i in old:
                    slow.cells[dst + i] = 0
                slow.pages_touched.add((dst + i) // PAGE_SIZE)

        assert _outcome(fast, lambda: fast.copy_range(
            dst, src, n, self.LOC)) == _outcome(slow, per_byte)

    @settings(max_examples=200, deadline=None)
    @given(layout=_layouts(), value=st.integers(0, 255))
    def test_set_range_matches_per_byte_stores(self, layout, value):
        n = layout[-1]
        fast, dst = _build(layout)
        slow, _ = _build(layout)

        def per_byte():
            slow.check_access(dst, self.LOC)
            if n > 0:
                slow.check_access(dst + n - 1, self.LOC)
            for i in range(n):
                slow.cells[dst + i] = value
                slow.pages_touched.add((dst + i) // PAGE_SIZE)

        assert _outcome(fast, lambda: fast.set_range(
            dst, value, n, self.LOC)) == _outcome(slow, per_byte)

    def test_set_range_counts_every_page_it_straddles(self):
        space = AddressSpace()
        block = space.alloc(9000)
        # a page boundary at least 96 bytes into the block
        boundary = (block // PAGE_SIZE + 2) * PAGE_SIZE
        space.pages_touched.clear()
        space.set_range(boundary - 96, 0, 200, self.LOC)
        assert space.pages_touched == {boundary // PAGE_SIZE - 1,
                                       boundary // PAGE_SIZE}

    @settings(max_examples=300, deadline=None)
    @given(layout=_layouts(), data=st.data())
    def test_read_c_string_matches_per_byte_reads(self, layout, data):
        text = data.draw(st.lists(st.one_of(st.integers(1, 255), _CELLS),
                                  max_size=40))
        limit = data.draw(st.just(1 << 20) | st.integers(-1, 50))
        fast, addr = _build(layout)
        slow, _ = _build(layout)
        for space in (fast, slow):
            space.cells.update(zip(range(addr, addr + len(text)), text))

        def per_byte():
            out = []
            for i in range(limit):
                b = slow.read(addr + i, self.LOC)
                if not isinstance(b, int):
                    raise InterpError(
                        f"non-character cell in string at 0x{addr + i:x}",
                        self.LOC)
                if b == 0:
                    return "".join(map(chr, out))
                out.append(b & 0xFF)
            raise InterpError(f"unterminated string at 0x{addr:x}",
                              self.LOC)

        assert _outcome(fast, lambda: fast.read_c_string(
            addr, self.LOC, limit)) == _outcome(slow, per_byte)

    def test_fast_path_crosses_pages(self, space):
        addr = space.alloc(9000)
        space.write_bytes(addr, bytes(range(256)) * 35)
        assert space.pages_touched == set(range(
            addr // 4096, (addr + 8959) // 4096 + 1))
        assert space.read_bytes(addr + 255, 3) == bytes([255, 0, 1])

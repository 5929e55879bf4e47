"""Tests for the simulated external world."""

from repro.runtime.world import World, WorldItem

from tests.conftest import run_clean


class TestItems:
    def test_random_files(self):
        world = World.with_random_files(count=3, size=100, seed=1)
        assert world.nitems() == 3
        assert world.item_size(0) == 100
        assert len(world.read(0, 0, 100)) == 100

    def test_reads_are_deterministic(self):
        a = World.with_random_files(3, 64, seed=9)
        b = World.with_random_files(3, 64, seed=9)
        assert a.read(1, 0, 64) == b.read(1, 0, 64)

    def test_partial_and_out_of_range_reads(self):
        world = World([WorldItem("f", b"abcdef")])
        assert world.read(0, 2, 2) == b"cd"
        assert world.read(0, 4, 10) == b"ef"
        assert world.read(5, 0, 4) == b""

    def test_item_names(self):
        world = World([WorldItem("notes.txt", b"x")])
        assert world.item_name(0) == "notes.txt"
        assert world.item_name(7) == ""

    def test_writes_captured(self):
        world = World()
        world.write(1, b"log ")
        world.write(1, b"line")
        assert bytes(world.written[1]) == b"log line"


class TestChannels:
    def test_feed_then_recv(self):
        world = World()
        world.feed_channel(0, b"hello")
        assert world.recv(0, 3) == b"hel"
        assert world.recv(0, 10) == b"lo"
        assert world.recv(0, 10) == b""

    def test_recv_of_no_bytes_consumes_nothing(self):
        world = World()
        world.feed_channel(0, b"abc")
        assert world.recv(0, 0) == b""
        assert world.recv(0, -2) == b""
        assert world.recv(0, 3) == b"abc"

    def test_recv_below_and_above_the_queued_length(self):
        world = World()
        world.feed_channel(4, b"hello world")
        assert world.recv(4, 5) == b"hello"
        world.feed_channel(4, b"!")
        assert world.recv(4, 100) == b" world!"
        assert not world.recv_ready(4)

    def test_recv_ready(self):
        world = World()
        assert not world.recv_ready(2)
        world.feed_channel(2, b"x")
        assert world.recv_ready(2)

    def test_send_captured(self):
        world = World()
        world.send(5, b"abc")
        assert bytes(world.outbound[5]) == b"abc"


class TestWorldBuiltins:
    def test_program_reads_world_items(self):
        world = World([WorldItem("data", b"ABCD")])
        result = run_clean("""
        int main() {
          char buf[8];
          long n = world_read(0, buf, 1, 3);
          buf[n] = 0;
          printf("%ld %s %d\\n", n, buf, world_nitems());
          return 0;
        }
        """, world=world)
        assert result.output == "3 BCD 1\n"

    def test_program_writes_world(self):
        world = World()
        run_clean("""
        int main() {
          char *msg = strdup("out!");
          world_write(3, msg, 4);
          free(msg);
          return 0;
        }
        """, world=world)
        assert bytes(world.written[3]) == b"out!"

    def test_channels_roundtrip(self):
        world = World()
        world.feed_channel(0, b"ping")
        result = run_clean("""
        int main() {
          char buf[8];
          long n = world_recv(0, buf, 8);
          world_send(1, buf, n);
          return 0;
        }
        """, world=world)
        assert bytes(world.outbound[1]) == b"ping"

    def test_latency_charged_as_io_steps(self):
        world = World([WorldItem("f", b"x" * 64)], read_latency=500)
        result = run_clean("""
        int main() {
          char buf[64];
          world_read(0, buf, 0, 64);
          return 0;
        }
        """, world=world)
        assert result.stats.steps_io >= 500

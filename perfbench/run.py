"""Benchmark entry point: one workload, one process, one JSON result line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed.
``--trace 1`` alternates untraced and traced passes over the same
inputs and reports the per-layer metrics (see ``spans.py``) and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  See ``LAYERS.md`` for what each
workload stresses and which metric each layer should move.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import repro  # noqa: E402,F401
except ImportError:
    sys.exit(f"perfbench: no repro package under {ROOT}/src; run from the "
             "root of a checkout")

import spans  # noqa: E402
import workloads  # noqa: E402

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: the reference loop's time at the speed every end-to-end time is
#: quoted at (see Speedometer)
REFERENCE_MS = 4.0
#: reference samples averaged on each side of a timed interval
BRACKET = 3
#: a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


def _probe_setup(workload: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter that sets the workload up and
    exits: process start, imports and input generation."""
    # No timeout: waiting with one polls the child at up to 50 ms
    # intervals, which would quantise the measurement.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(seed),
                    "--setup-only"],
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _walk(cells: list, n: int):
    for i in range(n):
        yield cells[i & 255]


def _reference_loop() -> int:
    """A fixed pure-Python loop (generator, attribute and dict work, as
    in the interpreter) that takes about REFERENCE_MS on an idle core."""
    cells = [_Cell(i) for i in range(256)]
    table: dict = {}
    acc = 0
    for cell in _walk(cells, 20_000):
        table[cell.value & 63] = cell
        acc ^= table.get((cell.value * 7) & 63, cell).value
    return acc


class Speedometer:
    """Follows the machine's speed, which drifts here by tens of percent
    within seconds, by timing the reference loop between ops.

    End-to-end times are quoted at the speed where the loop takes
    REFERENCE_MS: an interval's wall time is multiplied by REFERENCE_MS
    over the mean of the loop samples taken just before and just after
    it.  The loop depends on no code of the program, so a change to the
    program moves the scaled times exactly as it moves the wall times.
    """

    def __init__(self) -> None:
        #: (start, end, ms) per loop sample, in time order
        self.samples: list = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _reference_loop()
            t1 = time.perf_counter()
            self.samples.append((t0, t1, (t1 - t0) * 1e3))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean loop time of the BRACKET samples
        that end last before ``start`` and start first after ``end``."""
        ends = [s[1] for s in self.samples]
        starts = [s[0] for s in self.samples]
        before = self.samples[max(0, bisect.bisect_right(ends, start)
                                  - BRACKET):
                              bisect.bisect_right(ends, start)]
        first_after = bisect.bisect_left(starts, end)
        after = self.samples[first_after:first_after + BRACKET]
        return REFERENCE_MS / statistics.fmean(
            s[2] for s in before + after)

    def scaled(self, result) -> tuple:
        """(scaled wall seconds, scaled op ms) of a PassResult."""
        scales = [self.scale(*iv) for iv in result.intervals]
        wall = sum((end - start) * k
                   for (start, end), k in zip(result.intervals, scales))
        return wall, [ms * k for ms, k in zip(result.op_ms, scales)]

    def median_ms(self) -> float:
        return statistics.median(s[2] for s in self.samples)


def _environment() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def _percentile(values: list, q: int):
    """The ``q``-th percentile when at least TAIL_SAMPLES samples lie
    beyond it, else None."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def _measure(workload, args, speed: Speedometer) -> tuple:
    """Untraced passes until ``args.seconds`` have elapsed, with a
    reference sample between ops.  The first pass also records the
    deterministic facts and the peak RSS.  One set-up probe follows
    each pass, so that the probes spread across the run."""
    passes, setups, rss_mb = [], [], 0.0
    deadline = time.perf_counter() + args.seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        gc.collect()
        passes.append(workload.run_pass(n, base=n == 0,
                                        between=speed.sample))
        speed.sample()
        if n == 0:
            rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024.0)
        if len(setups) < SETUP_PROBES:
            setups.append(_scaled_probe(args, speed))
        n += 1
    while len(setups) < SETUP_PROBES:
        setups.append(_scaled_probe(args, speed))
    return passes, setups, rss_mb


def _scaled_probe(args, speed: Speedometer) -> float:
    speed.sample(BRACKET)
    start = time.perf_counter()
    _probe_setup(args.workload, args.seed)
    end = time.perf_counter()
    speed.sample(BRACKET)
    return (end - start) * speed.scale(start, end)


def _measure_traced(workload, tracer, seconds: float,
                    speed: Speedometer) -> tuple:
    """Pairs of passes over the same inputs, untraced then traced; the
    counts cover the first traced pass.  In a traced pass the reference
    loop runs in a span of its own, so that no layer's self time
    includes it."""
    def traced_sample() -> None:
        index = tracer.begin("reference.loop")
        speed.sample()
        tracer.end(index)

    passes, untraced_s, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        gc.collect()
        plain = workload.run_pass(2 * pair, between=speed.sample)
        speed.sample()
        untraced_s.append(speed.scaled(plain)[0])
        gc.collect()
        tracer.counting = pair == 0
        with tracer:
            traced = workload.run_pass(2 * pair + 1, tracer=tracer,
                                       base=True, between=traced_sample)
        speed.sample()
        traced_s.append(speed.scaled(traced)[0])
        tracer.counting = False
        passes += [plain, traced]
        pair += 1
    return passes, untraced_s, traced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The compiled/tree-walker choice is part of each workload's input.
    os.environ.pop("SHARC_BACKEND", None)

    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    try:
        if args.setup_only:
            workloads.make(args.workload, args.seed, tmp_root)
            return 0
        return _run(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it


def _run(args, tmp_root: str) -> int:
    env = _environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            workload = workloads.make(args.workload, args.seed, tmp_root)
    else:
        workload = workloads.make(args.workload, args.seed, tmp_root)
    inproc_setup = time.perf_counter() - PROCESS_T0

    speed = Speedometer()
    if tracer is not None:
        passes, untraced_s, traced_s = _measure_traced(
            workload, tracer, args.seconds, speed)
    else:
        passes, setups, rss_mb = _measure(workload, args, speed)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    failed = min(len(failures), attempted)
    for line in failures[:20]:
        print(f"# FAILED {line}")

    if tracer is not None:
        layer = spans.per_layer(tracer, traced_s, untraced_s)
        layer["trace.reference_ms"] = (speed.median_ms(), "ms")
        for name, (value, unit) in layer.items():
            print(f"{name:34} {value:14.4f} {unit}")
        metrics = layer
        correct = failed == 0
    else:
        facts = workload.facts()
        scaled = [speed.scaled(p) for p in passes]
        walls = [wall for wall, _ in scaled]
        op_ms = [ms for _, ops in scaled for ms in ops]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_s": (statistics.median(walls), "s"),
            "ops_per_s": (sum(p.work for p in passes) / sum(walls), "1/s"),
            "op_ms.p50": (statistics.median(op_ms), "ms"),
            "step_overhead": (facts["step_overhead"], "ratio"),
            "mem_overhead": (facts["mem_overhead"], "ratio"),
            "race_keys": (facts["race_keys"], "count"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{name:16} {value:14.4f} {unit}")
        p90 = _percentile(op_ms, 90)
        tail = f"{p90:.1f} ms" if p90 is not None else "n/a"
        print(f"# pass walls {[round(p.wall_s, 2) for p in passes]} s, "
              f"scaled {[round(w, 2) for w in walls]} s; reference loop "
              f"median {speed.median_ms():.3f} ms")
        print(f"# {len(passes)} passes, {len(op_ms)} op samples, "
              f"op_ms.p90 {tail}; scaled set-ups "
              f"{[round(s, 3) for s in setups]} s; in-process set-up "
              f"{inproc_setup:.3f} s")
        correct = failed == 0 and facts["race_keys"] > 0
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

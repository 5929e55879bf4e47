"""Per-check-site cost attribution.

SharC's evaluation attributes checking overhead per benchmark; the
static tiers (checkelim and the lockset refinement) need the same
attribution per *check site* — which ``chkread``/``chkwrite`` occurrences actually dominate
the charged cost across a whole sweep, and how each was discharged
(full shadow walk, range-batched walk, elision guard, held-lock probe,
or the single-threaded fast path).

A site is one instrumented l-value occurrence, keyed by
``(file, line, lvalue, op)`` with ``op`` either ``"r"`` or ``"w"``.
The runtime keeps one small counter list per site in
``RunStats.sites``; the layout (:data:`SITE_FIELDS`) is shared by the
one dynamic check both backends run (:mod:`repro.runtime.dyncheck`)
and the library-call summary path, so per-site totals reconcile *exactly* with the global
``RunStats`` counters — :func:`reconcile` asserts that invariant and
the tier-1 suite runs it over the Table 1 workloads.

Counters are pure observation: recording them never touches the
scheduler RNG, step charges, shadow bitmaps, or reports, so runs stay
bit-identical with attribution on (it is always on — the cost is one
dict lookup and a few integer adds per check).
"""

from __future__ import annotations

from typing import Optional, Sequence

#: counter layout of one site's list, in index order:
#:
#: - ``solo``: checks discharged by the single-live-thread fast path;
#: - ``full``: full per-granule shadow walks;
#: - ``range``: range-batched walks (incl. library-call summaries);
#: - ``elided``: statically elided checks revalidated by ``recheck``;
#: - ``locked``: lockset-refined checks discharged via the held-lock
#:   probe;
#: - ``miss``: walks that left the fast path (``slow > 0`` granules);
#: - ``conflicts``: walks that produced a conflict record;
#: - ``cost``: total charged check steps at this site.
SITE_FIELDS = ("solo", "full", "range", "elided", "locked", "miss",
               "conflicts", "cost")

(I_SOLO, I_FULL, I_RANGE, I_ELIDED, I_LOCKED, I_MISS, I_CONFLICTS,
 I_COST) = range(len(SITE_FIELDS))

N_FIELDS = len(SITE_FIELDS)


def new_counter() -> list:
    """A zeroed per-site counter list (:data:`SITE_FIELDS` layout)."""
    return [0] * N_FIELDS


def site_id(key: tuple) -> str:
    """The human/JSON form of a site key: ``file:line op lvalue``."""
    file, line, lvalue, op = key
    return f"{file}:{line} {op} {lvalue}"


def merge_sites(dst: dict, src) -> dict:
    """Folds ``src`` — a sites dict or an :func:`encode_sites` tuple —
    into ``dst`` in place and returns it."""
    items = src.items() if isinstance(src, dict) else (
        (tuple(entry[0]), entry[1]) for entry in src)
    for key, counts in items:
        acc = dst.get(key)
        if acc is None:
            dst[key] = list(counts)
        else:
            for i, value in enumerate(counts):
                acc[i] += value
    return dst


def encode_sites(sites: dict) -> tuple:
    """A hashable, picklable, deterministic encoding of a sites dict —
    what :class:`~repro.explore.driver.ScheduleOutcome` carries across
    the multiprocessing fan-out."""
    return tuple((key, tuple(counts))
                 for key, counts in sorted(sites.items()))


def decode_sites(encoded) -> dict:
    """Inverse of :func:`encode_sites`."""
    return {tuple(key): list(counts) for key, counts in encoded}


def site_rows(sites: dict, limit: int = 0) -> list:
    """JSON-ready rows sorted by charged cost (descending; ties break
    on the key so the order is deterministic).  ``limit`` > 0 truncates
    to the hottest sites."""
    rows = []
    for key, c in sorted(sites.items(),
                         key=lambda kv: (-kv[1][I_COST], kv[0])):
        file, line, lvalue, op = key
        row = {"file": file, "line": line, "lvalue": lvalue, "op": op,
               "checks": int(sum(c[:I_MISS]))}
        row.update({name: int(c[i])
                    for i, name in enumerate(SITE_FIELDS)})
        rows.append(row)
    return rows[:limit] if limit > 0 else rows


def totals(sites: dict) -> dict:
    """Summed counters across every site (same field names)."""
    out = dict.fromkeys(SITE_FIELDS, 0)
    out["checks"] = 0
    for c in sites.values():
        for i, name in enumerate(SITE_FIELDS):
            out[name] += c[i]
        out["checks"] += sum(c[:I_MISS])
    return out


def reconcile(sites: dict, stats) -> list:
    """Checks the per-site totals against the global
    :class:`~repro.runtime.stats.RunStats` counters.  Returns a list of
    problems (empty when the attribution reconciles exactly):

    - ``sum(full) == stats.checks_full``
    - ``sum(range) == stats.checks_range``
    - ``sum(elided) == stats.checks_elided``
    - ``sum(locked) == stats.checks_locked_refined``
    - ``sum(solo + full + range + elided + locked)
      == stats.accesses_dynamic``
    """
    got = totals(sites)
    problems = []
    for name, expected in (
            ("full", stats.checks_full),
            ("range", stats.checks_range),
            ("elided", stats.checks_elided),
            ("locked", stats.checks_locked_refined)):
        if got[name] != expected:
            problems.append(f"sites.{name} = {got[name]} != "
                            f"stats {expected}")
    if got["checks"] != stats.accesses_dynamic:
        problems.append(f"sites checks total = {got['checks']} != "
                        f"stats.accesses_dynamic "
                        f"{stats.accesses_dynamic}")
    return problems


def render_hot_sites(sites: dict, source: Optional[str] = None,
                     limit: int = 10) -> str:
    """The source-annotated hot-site listing: one line per site sorted
    by charged cost, optionally followed by the source line it
    instruments (``source`` is the program text the sites came from)."""
    rows = site_rows(sites, limit=limit)
    if not rows:
        return "no check sites recorded"
    src_lines: Sequence[str] = ()
    if source is not None:
        src_lines = source.splitlines()
    head = totals(sites)
    lines = [
        f"hot check sites ({len(sites)} site(s), "
        f"{head['checks']} checks, cost {head['cost']}):",
        f"  {'site':<34} {'op':>2} {'cost':>8} {'full':>7} "
        f"{'range':>7} {'elide':>7} {'lock':>6} "
        f"{'solo':>7} {'miss':>6} {'confl':>5}",
    ]
    for row in rows:
        where = f"{row['file']}:{row['line']} {row['lvalue']}"
        lines.append(
            f"  {where:<34} {row['op']:>2} {row['cost']:>8} "
            f"{row['full']:>7} {row['range']:>7} {row['elided']:>7} "
            f"{row['locked']:>6} {row['solo']:>7} "
            f"{row['miss']:>6} {row['conflicts']:>5}")
        if 0 < row["line"] <= len(src_lines):
            lines.append(f"      {row['line']:>4} | "
                         f"{src_lines[row['line'] - 1].strip()}")
    return "\n".join(lines)

"""Statistics of the Seer benchmark: percentiles with their sample support,
span self time, metrics-export histograms and outcome counting.

Everything here is pure: run.py feeds it the raw measurements seerbench
writes, and test_stats.py checks it.
"""

import math
import re
import statistics

# Percentiles a latency may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)

# A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0 < p < 100) by linear interpolation between
    closest ranks, as numpy's default does."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of n samples rank above the p-th percentile's position
    (the interpolation rank of percentile())."""
    return (n - 1) - math.floor((n - 1) * p / 100.0) if n else 0


def supported(n, p):
    return samples_beyond(n, p) >= MIN_BEYOND


def highest_supported_percentile(n, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile that keeps at least MIN_BEYOND of
    n samples beyond it, or None when even the median does not."""
    best = None
    for p in candidates:
        if supported(n, p):
            best = p
    return best


def summarize(values):
    """Median, the highest supported tail and the sample count."""
    n = len(values)
    out = {"n": n}
    if not n:
        return out
    out["p50"] = percentile(values, 50.0)
    out["p99"] = percentile(values, 99.0)
    out["p99_supported"] = supported(n, 99.0)
    tail = highest_supported_percentile(n)
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Children may nest or overlap each other; an
    overlapped stretch counts once, and a child's time outside its parent
    does not count. Spans are dicts with id, parent (0 = root), start and
    end. Returns {id: self_time}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - covered_length(
            kids, s["start"], s["end"])
    return out


def infer_parents(spans):
    """Assigns parents by containment on each thread, for traces that carry
    no parent ids (the program's own span recorder). A span's parent is
    the innermost earlier span on the same thread that contains it."""
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s["tid"], []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s["start"], -(s["end"] - s["start"])))
        stack = []
        for s in group:
            while stack and not (stack[-1]["start"] <= s["start"]
                                 and s["end"] <= stack[-1]["end"]):
                stack.pop()
            s["parent"] = stack[-1]["id"] if stack else 0
            stack.append(s)
    return spans


def chrome_spans(doc):
    """Spans of a Chrome trace-event document, times in microseconds. Ids
    and parents come from args when present."""
    spans = []
    for i, e in enumerate(doc.get("traceEvents", [])):
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({
            "name": e["name"],
            "id": args.get("id", i + 1),
            "parent": args.get("parent", 0),
            "request": args.get("request_id", 0),
            "tid": e.get("tid", 0),
            "start": float(e["ts"]),
            "end": float(e["ts"]) + float(e["dur"]),
        })
    return spans


def layer_table(spans):
    """Per span name: count, median duration and median self time."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        row = by_name.setdefault(s["name"], ([], []))
        row[0].append(s["end"] - s["start"])
        row[1].append(selfs[s["id"]])
    return {name: {"n": len(d), "p50": statistics.median(d),
                   "self_p50": statistics.median(own)}
            for name, (d, own) in by_name.items()}


_BUCKET = re.compile(r'^(\w+)_bucket\{le="([^"]+)"\} (\d+)$')


def prom_buckets(text, name):
    """Cumulative buckets {upper_bound: count} of one histogram in a
    Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        m = _BUCKET.match(line.strip())
        if m and m.group(1) == name:
            out[float(m.group(2))] = int(m.group(3))
    return out


def histogram_percentile(before, after, p):
    """The p-th percentile (0-100) of the samples recorded between two
    snapshots of one histogram, each a list of cumulative bucket dicts
    (one per process, summed). Interpolates geometrically inside the
    bucket, as the program's own Histogram::percentile does. None when
    nothing was recorded."""
    bounds = sorted({b for snap in before + after for b in snap})
    counts = []
    for b in bounds:
        c = sum(s.get(b, _below(s, b)) for s in after) - \
            sum(s.get(b, _below(s, b)) for s in before)
        counts.append(c)
    total = counts[-1] if counts else 0
    if total <= 0:
        return None
    target = max(1.0, p / 100.0 * total)
    prev_bound, prev_count = None, 0
    for b, c in zip(bounds, counts):
        if c >= target:
            if math.isinf(b):
                return prev_bound
            if prev_bound is None or c == prev_count:
                return b
            frac = (target - prev_count) / (c - prev_count)
            return prev_bound * (b / prev_bound) ** frac
        prev_bound, prev_count = b, c
    return prev_bound


def _below(snapshot, bound):
    """Cumulative count at bound of a snapshot that has no bucket there:
    the count of its highest bucket below it (buckets with no samples are
    not exported)."""
    lower = [b for b in snapshot if b < bound]
    return snapshot[max(lower)] if lower else 0


def stat_lines(text):
    """The `stat NAME VALUE` snapshot of a server as {name: float}."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "stat":
            out[parts[1]] = float(parts[2])
    return out


def outcome(attempted, succeeded, failed, wrong):
    """Checks one run's operation counts and says whether it is correct.
    Every attempted operation either succeeded or failed, a wrong answer
    is one kind of failure, and a run is correct when no answer was wrong.
    Raises ValueError on inconsistent counts."""
    if min(attempted, succeeded, failed, wrong) < 0:
        raise ValueError("negative count")
    if succeeded + failed != attempted:
        raise ValueError("attempted %d != succeeded %d + failed %d"
                         % (attempted, succeeded, failed))
    if wrong > failed:
        raise ValueError("wrong %d > failed %d" % (wrong, failed))
    if attempted < 1:
        raise ValueError("nothing attempted")
    return {"attempted": attempted, "succeeded": succeeded,
            "failed": failed, "wrong": wrong, "correct": wrong == 0}

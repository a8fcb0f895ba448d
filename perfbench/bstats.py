"""Arithmetic the benchmark reports with: percentiles, failure shares,
spans' self time.  Kept apart from run.py so test_bstats.py can check it
without building or running anything."""


def percentile(values, p):
    """The p-th percentile (0..100) of values, interpolating linearly
    between the two closest ranks (numpy's default, "linear")."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def failed_share(attempted, failed):
    """Failed operations over attempted ones; refused and wrong answers
    count as failed, so the share is in [0, 1]."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed %d outside [0, %d]" % (failed, attempted))
    return failed / attempted


def _union_length(intervals):
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(events):
    """Self time of every complete ("X") trace event: its duration minus
    the part of its interval that its children cover.  Children are
    found through args.parent_id and must share the parent's pid.
    Returns {span_id: self_time} in the events' time unit."""
    spans = {}
    children = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        sid = (e.get("pid"), args["span_id"])
        spans[sid] = (e["ts"], e["ts"] + e["dur"])
        parent = (e.get("pid"), args.get("parent_id", 0))
        children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (a, b) in spans.items():
        covered = [
            (max(a, spans[c][0]), min(b, spans[c][1]))
            for c in children.get(sid, [])
            if spans[c][1] > a and spans[c][0] < b
        ]
        out[sid] = (b - a) - _union_length(covered)
    return out


def self_time_by_layer(events):
    """Total self time per layer, the layer being the part of the span
    name before the first dot (netlist, ssta, server, ...)."""
    st = self_times(events)
    by = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        sid = (e.get("pid"), e["args"]["span_id"])
        layer = e["name"].split(".", 1)[0]
        by[layer] = by.get(layer, 0.0) + st[sid]
    return by

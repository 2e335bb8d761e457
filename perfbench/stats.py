"""Statistics of the benchmark: percentiles, the tail-percentile rule,
self time from spans, failure counting, and the backlog-growth test.

Pure functions over plain lists and dicts, so test_stats.py can pin them
without building anything.
"""

import math
import statistics

# Percentiles the tail rule may report, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, p):
    """p in [0, 100], linear interpolation between the straddling order
    statistics (the same rule as omega::Percentile). None for no values."""
    if not values:
        return None
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def has_support(n, p):
    """True when n samples leave at least MIN_BEYOND beyond percentile p."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, or None when even the median lacks them."""
    best = None
    for p in TAIL_LADDER:
        if has_support(n, p):
            best = p
    return best


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return sum(values) / len(values) if values else None


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children. `spans` holds [id, parent, group, name, start, dur]
    rows; returns {id: self_seconds}."""
    child_sum = {}
    for _, parent, _, _, _, dur in spans:
        if parent:
            child_sum[parent] = child_sum.get(parent, 0.0) + dur
    return {sid: dur - child_sum.get(sid, 0.0)
            for sid, _, _, _, _, dur in spans}


def layer_of(name):
    """A span's layer is its name up to the first '.'."""
    return name.split(".", 1)[0]


def self_time_by_layer(spans, group=None):
    """Sum of self time per layer, over every span or one group's."""
    own = self_times(spans)
    out = {}
    for sid, _, g, name, _, _ in spans:
        if group is None or g == group:
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own[sid]
    return out


def self_time_by_name(spans, group=None):
    """Sum of self time per span name, over every span or one group's."""
    own = self_times(spans)
    out = {}
    for sid, _, g, name, _, _ in spans:
        if group is None or g == group:
            out[name] = out.get(name, 0.0) + own[sid]
    return out


def failure_count(op_failures, checks):
    """Operations that failed: failed or rejected operations plus
    operations whose output failed a check. `checks` maps a check name to
    {"checked": n, "failed": m}."""
    return int(op_failures) + sum(int(c["failed"]) for c in checks.values())


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones, capped at 1; a run that
    attempted nothing has failed entirely."""
    if attempted <= 0:
        return 1.0
    return min(1.0, failed / attempted)


def backlog_growing(quarter_means):
    """True when the mean number of requests in flight keeps growing over
    an open-loop phase: the last quarter holds more than twice the first
    quarter's backlog plus 16 requests. A stall raises one quarter and
    drains; an overload raises each quarter above the one before."""
    if len(quarter_means) != 4:
        return False
    first, last = quarter_means[0], quarter_means[-1]
    rising = all(b >= a for a, b in zip(quarter_means, quarter_means[1:]))
    return rising and last > 2.0 * first + 16.0

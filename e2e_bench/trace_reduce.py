"""Reduces a simulator Chrome trace to per-round self and inclusive times, and
digests a run's outcome.

The simulator's telemetry (SimulationConfig::telemetry) writes one complete
("X") event per span: the eight ``stage_*`` spans of a round on the calling
thread, the ``pipeline_*`` spans of the server-round pipeline nested inside
``stage_server_round`` or ``stage_probe``, and one ``shardN`` span per shard
task, which run in parallel on pool threads. This module

* nests the serial spans by interval containment and gives each its self
  time (its duration minus the union of its children's intervals), so the
  stage self times, the pipeline self times and the time between stages add
  up to the round's wall time;
* files each ``pipeline_*`` span under the stage that contains it, so probe
  work is kept apart from the server round's own work;
* counts ``shardN`` spans as busy time of the span they run under, never as
  wall time, and reports how long the slowest shard kept the others waiting.

Standard library only.
"""

import json
import struct
from collections import defaultdict

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_EPS_US = 0.01  # trace timestamps carry 12 significant digits


def fnv1a64(data, h=FNV_OFFSET):
    """FNV-1a, 64-bit, over ``data`` (bytes), continuing from ``h``."""
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def outcome_digest(rep):
    """Digest of one repetition's outcome: the k_used sequence, every round's
    train and eval loss bits, and each client's uplink total bits. Equal
    inputs on a deterministic engine give equal digests, with telemetry on
    or off."""
    h = FNV_OFFSET
    for key in ("k_used", "train_loss_bits", "global_loss_bits", "client_uplink_bits"):
        words = rep[key]
        h = fnv1a64(struct.pack("<%dQ" % len(words), *words), h)
    return h


def load_rounds(path):
    """Complete events of a Chrome trace file grouped by round:
    {round: [(name, start_us, dur_us), ...]}."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    rounds = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            rounds[e["args"]["round"]].append((e["name"], float(e["ts"]), float(e["dur"])))
    return dict(rounds)


def _is_shard(name):
    return name.startswith("shard")


def _union_length(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def _phase(stage):
    if stage == "stage_server_round":
        return "round"
    if stage == "stage_probe":
        return "probe"
    return stage[len("stage_"):] if stage and stage.startswith("stage_") else "other"


def reduce_round(spans):
    """One round's spans -> {"wall_us", "stage_self_us", "stage_incl_us",
    "nested_self_us" {(phase, name): us}, "unspanned_us", "shard_busy_us",
    "shard_max_us", "shard_mean_us"}.

    Stages are the ``stage_*`` spans; every other serial span is nested under
    the stage that contains it and keyed by that stage's phase ("round" for
    stage_server_round, "probe" for stage_probe)."""
    serial = sorted((s for s in spans if not _is_shard(s[0])), key=lambda s: (s[1], -s[2]))
    shards = [s for s in spans if _is_shard(s[0])]
    stages = [s for s in serial if s[0].startswith("stage_")]
    if not stages:
        raise ValueError("round without stage_* spans")

    # Containment tree over the serial spans (a stack of open intervals).
    parent = [None] * len(serial)
    stack = []
    for i, (_, start, dur) in enumerate(serial):
        while stack and start >= serial[stack[-1]][1] + serial[stack[-1]][2] - _EPS_US:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)

    def enclosing_stage(i):
        while i is not None and not serial[i][0].startswith("stage_"):
            i = parent[i]
        return serial[i][0] if i is not None else None

    stage_self = defaultdict(float)
    stage_incl = defaultdict(float)
    nested_self = defaultdict(float)
    for i, (name, start, dur) in enumerate(serial):
        covered = _union_length(
            [(serial[c][1], serial[c][1] + serial[c][2]) for c in children[i]])
        self_us = dur - covered
        if name.startswith("stage_") and parent[i] is None:
            stage_self[name] += self_us
            stage_incl[name] += dur
        else:
            nested_self[(_phase(enclosing_stage(i)), name)] += self_us

    first = min(s[1] for s in stages)
    last = max(s[1] + s[2] for s in stages)
    wall = last - first
    unspanned = wall - _union_length([(s[1], s[1] + s[2]) for s in stages])

    # Shard spans: busy time of the innermost serial span they run under.
    per_container = defaultdict(lambda: defaultdict(float))
    for name, start, dur in shards:
        owner = None
        for i, (_, s0, d0) in enumerate(serial):
            if s0 - _EPS_US <= start and start + dur <= s0 + d0 + _EPS_US:
                if owner is None or d0 <= serial[owner][2]:
                    owner = i
        per_container[owner][name] += dur
    shard_busy = sum(d for _, _, d in shards)
    shard_max = sum(max(b.values()) for b in per_container.values())
    shard_mean = sum(sum(b.values()) / len(b) for b in per_container.values())

    return {
        "wall_us": wall,
        "stage_self_us": dict(stage_self),
        "stage_incl_us": dict(stage_incl),
        "nested_self_us": dict(nested_self),
        "unspanned_us": unspanned,
        "shard_busy_us": shard_busy,
        "shard_max_us": shard_max,
        "shard_mean_us": shard_mean,
    }


def share_sum_pct(r):
    """Stage self + nested self + unspanned time as a share of round wall;
    100 when the reduction accounts for every microsecond exactly once."""
    total = (sum(r["stage_self_us"].values()) + sum(r["nested_self_us"].values())
             + r["unspanned_us"])
    return 100.0 * total / r["wall_us"] if r["wall_us"] > 0 else 100.0


def tail_percentile(n, beyond=10):
    """Highest of the usual percentiles that leaves at least ``beyond`` of
    ``n`` samples above it; 50 when none does."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) >= beyond * 100.0:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]

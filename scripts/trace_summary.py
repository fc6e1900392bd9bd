#!/usr/bin/env python3
"""Summarize a fedsparse round-metrics JSONL trace (fl/trace.h).

Prints a per-stage wall-time table (from each round's "stages_us" span
totals) and the top-N counters/gauges from the final round's registry scrape.
Optionally validates a Chrome trace-event JSON file emitted alongside it.

Usage:
  trace_summary.py METRICS.jsonl [--top N] [--chrome TRACE.json]
  trace_summary.py --smoke        # self-check (run under ctest)
"""

import argparse
import json
import os
import signal
import sys
import tempfile


def load_jsonl(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{lineno}: invalid JSON: {e}")
    if not rows:
        raise SystemExit(f"{path}: no rounds found")
    return rows


def stage_table(rows):
    """Aggregates stages_us over all rounds -> [(stage, total_us, rounds_seen)]."""
    totals = {}
    seen = {}
    for row in rows:
        for stage, us in row.get("stages_us", {}).items():
            totals[stage] = totals.get(stage, 0.0) + float(us)
            seen[stage] = seen.get(stage, 0) + 1
    return sorted(
        ((s, totals[s], seen[s]) for s in totals), key=lambda t: t[1], reverse=True
    )


def print_stage_table(rows, out=sys.stdout):
    table = stage_table(rows)
    if not table:
        print("no span data (telemetry ran without stages_us)", file=out)
        return
    grand = sum(t[1] for t in table)
    print(f"per-stage wall time over {len(rows)} rounds:", file=out)
    print(f"  {'stage':<24} {'total ms':>10} {'mean us/round':>14} {'share':>7}", file=out)
    for stage, total_us, n in table:
        share = 100.0 * total_us / grand if grand > 0 else 0.0
        print(
            f"  {stage:<24} {total_us / 1000.0:>10.3f} {total_us / n:>14.1f} {share:>6.1f}%",
            file=out,
        )


def print_top_counters(rows, top, out=sys.stdout):
    last = rows[-1]
    counters = last.get("counters", {})
    gauges = last.get("gauges", {})
    ranked = sorted(counters.items(), key=lambda kv: (-float(kv[1] or 0), kv[0]))
    print(f"\ntop {min(top, len(ranked))} counters (cumulative, final round):", file=out)
    for name, value in ranked[:top]:
        print(f"  {name:<40} {float(value or 0):>16,.0f}", file=out)
    if gauges:
        print("\ngauges (final round):", file=out)
        for name in sorted(gauges):
            v = gauges[name]
            print(f"  {name:<40} {float(v):>16.4f}" if v is not None else f"  {name:<40} {'n/a':>16}", file=out)


def validate_chrome(path, out=sys.stdout):
    """Validates a Chrome trace-event JSON file; returns spans-per-track."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SystemExit(f"{path}: missing traceEvents array")
    tracks = {}
    names = {}
    for e in events:
        ph = e.get("ph")
        if ph == "M" and e.get("name") == "thread_name":
            names[e.get("tid")] = e.get("args", {}).get("name", "?")
        elif ph == "X":
            for key in ("name", "ts", "dur", "pid", "tid"):
                if key not in e:
                    raise SystemExit(f"{path}: complete event missing '{key}': {e}")
            tracks[e["tid"]] = tracks.get(e["tid"], 0) + 1
    if not tracks:
        raise SystemExit(f"{path}: no complete ('X') span events")
    print(f"\n{path}: valid Chrome trace, {len(events)} events:", file=out)
    for tid in sorted(tracks):
        print(f"  track {names.get(tid, tid):<24} {tracks[tid]:>8} spans", file=out)
    return {names.get(tid, tid): n for tid, n in tracks.items()}


def smoke():
    """Self-check: synthesize a tiny trace pair, summarize, assert the math."""
    rows = [
        {
            "round": m,
            "time": 10.0 * m,
            "stages_us": {"stage_compute": 100.0 * m, "stage_server_round": 50.0},
            "counters": {"fl.rounds": m, "fl.participants": 4 * m},
            "gauges": {"fl.k_used": 20.0},
        }
        for m in (1, 2, 3)
    ]
    with tempfile.TemporaryDirectory() as d:
        jsonl = os.path.join(d, "metrics.jsonl")
        with open(jsonl, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
        loaded = load_jsonl(jsonl)
        table = dict((s, t) for s, t, _ in stage_table(loaded))
        assert abs(table["stage_compute"] - 600.0) < 1e-9, table
        assert abs(table["stage_server_round"] - 150.0) < 1e-9, table
        assert loaded[-1]["counters"]["fl.participants"] == 12

        chrome = os.path.join(d, "trace.json")
        with open(chrome, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "traceEvents": [
                        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
                         "args": {"name": "stage_compute"}},
                        {"name": "stage_compute", "cat": "round", "ph": "X", "ts": 1.0,
                         "dur": 100.0, "pid": 1, "tid": 0, "args": {"round": 1}},
                    ]
                },
                f,
            )
        per_track = validate_chrome(chrome)
        assert per_track == {"stage_compute": 1}, per_track

        print_stage_table(loaded)
        print_top_counters(loaded, top=5)
    print("trace_summary smoke OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jsonl", nargs="?", help="round-metrics JSONL file")
    ap.add_argument("--top", type=int, default=10, help="counters to show (default 10)")
    ap.add_argument("--chrome", help="also validate this Chrome trace-event JSON file")
    ap.add_argument("--smoke", action="store_true", help="run the self-check and exit")
    args = ap.parse_args()

    if args.smoke:
        smoke()
        return
    if not args.jsonl:
        ap.error("JSONL path required (or --smoke)")
    rows = load_jsonl(args.jsonl)
    print_stage_table(rows)
    print_top_counters(rows, args.top)
    if args.chrome:
        validate_chrome(args.chrome)


if __name__ == "__main__":
    # Behave like any other Unix filter when the reader goes away early
    # (`trace_summary.py ... | head`): die quietly of SIGPIPE instead of
    # raising BrokenPipeError at the next print.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()

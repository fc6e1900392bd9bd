#!/usr/bin/env python3
"""Summarize a fedsparse telemetry run (fl/trace.h).

With --chrome, reduces the Chrome trace with e2e_bench/trace_reduce.py and
prints, per round, each stage's self and inclusive ms, the pipeline_* spans
filed under the stage that ran them (round/ for stage_server_round, probe/
for stage_probe), the time between stages, and each row's share of wall
time. Then prints the top-N counters and the gauges of the final JSONL row.
With --diff, prints the per-round self time of every stage and pipeline span
in two Chrome traces and the change from the first to the second, the round/
and probe/ pipelines in separate sections. Exits non-zero on malformed input
and when any round's spans differ from its wall time by more than 1%.

Usage:
  trace_summary.py METRICS.jsonl [--top N] [--chrome TRACE.json]
  trace_summary.py --diff BEFORE.json AFTER.json
  trace_summary.py --smoke        # self-check (run under ctest)
"""

import argparse
import json
import os
import signal
import sys
import tempfile

E2E = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "e2e_bench")
sys.path.insert(0, E2E)
import trace_reduce  # noqa: E402

TOLERANCE_PCT = 1.0


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


def reduce_trace(path):
    """{round: trace_reduce.reduce_round(...)}; exits with a message when the
    trace is malformed or its spans do not add up to a round's wall time."""
    try:
        rounds = trace_reduce.load_rounds(path)
        reduced = {m: trace_reduce.reduce_round(rounds[m]) for m in sorted(rounds)}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise SystemExit(f"{path}: malformed trace: {e!r}")
    if not reduced:
        raise SystemExit(f"{path}: no complete ('X') span events")
    pct = {m: trace_reduce.share_sum_pct(r) for m, r in reduced.items()}
    off = [f"{m}: {p:.1f}%" for m, p in pct.items() if abs(p - 100.0) > TOLERANCE_PCT]
    if off:
        raise SystemExit(f"{path}: spans do not add up to wall time in round(s) "
                         + ", ".join(off[:5]))
    return reduced


def stage_table(reduced):
    """-> ([(row, self_us, incl_us or None)], wall_us), summed over rounds:
    stages in trace order, then the nested rows by phase, then unspanned."""
    self_us, incl_us, nested = {}, {}, {}
    wall = unspanned = 0.0
    for r in reduced.values():
        wall += r["wall_us"]
        unspanned += r["unspanned_us"]
        for name, us in r["stage_self_us"].items():
            self_us[name] = self_us.get(name, 0.0) + us
            incl_us[name] = incl_us.get(name, 0.0) + r["stage_incl_us"][name]
        for (phase, name), us in r["nested_self_us"].items():
            nested[f"{phase}/{name}"] = nested.get(f"{phase}/{name}", 0.0) + us
    rows = [(name, us, incl_us[name]) for name, us in self_us.items()]
    rows += [(key, nested[key], None) for key in sorted(nested)]
    return rows + [("(unspanned)", unspanned, None)], wall


def print_stage_table(reduced, out=sys.stdout):
    rows, wall = stage_table(reduced)
    n = len(reduced)
    print(f"per-round time over {n} rounds ({wall / n / 1000.0:.3f} ms wall per round):", file=out)
    print(f"  {'span':<32} {'self ms':>9} {'incl ms':>9} {'share':>7}", file=out)
    for name, us, incl in rows + [("total", sum(r[1] for r in rows), None)]:
        incl_ms = f"{incl / n / 1000.0:>9.3f}" if incl is not None else f"{'':>9}"
        print(f"  {name:<32} {us / n / 1000.0:>9.3f} {incl_ms} {100.0 * us / wall:>6.1f}%", file=out)


def per_round_self_ms(path):
    """-> ({row: self ms per round}, wall ms per round) of a Chrome trace."""
    reduced = reduce_trace(path)
    rows, wall = stage_table(reduced)
    n = len(reduced)
    return {name: us / n / 1000.0 for name, us, _ in rows}, wall / n / 1000.0


def print_diff(before_path, after_path, out=sys.stdout):
    """Prints per-round self ms of both traces and their difference, stages
    first, then the round/ and probe/ pipeline rows; returns
    [(row, before_ms, after_ms)] with the wall time last."""
    before, wall_before = per_round_self_ms(before_path)
    after, wall_after = per_round_self_ms(after_path)
    names = list(before) + [name for name in after if name not in before]
    sections = (("stages", [n for n in names if "/" not in n]),
                ("round/ pipeline (inside stage_server_round)",
                 [n for n in names if n.startswith("round/")]),
                ("probe/ pipeline (inside stage_probe)",
                 [n for n in names if n.startswith("probe/")]))
    print(f"per-round self ms: A = {before_path}, B = {after_path}", file=out)
    print(f"  {'span':<32} {'A':>9} {'B':>9} {'B - A':>9} {'change':>8}", file=out)
    table = []

    def row(name, a, b):
        table.append((name, a, b))
        change = f"{100.0 * (b - a) / a:>+7.1f}%" if a > 0 else f"{'n/a':>8}"
        print(f"  {name:<32} {a:>9.3f} {b:>9.3f} {b - a:>+9.3f} {change}", file=out)

    for title, names_in in sections:
        if names_in:
            print(f" {title}:", file=out)
        for name in names_in:
            row(name, before.get(name, 0.0), after.get(name, 0.0))
    row("wall", wall_before, wall_after)
    return table


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


def smoke():
    """Self-check on the reducer's fixture trace and a synthesized JSONL."""
    fixture = os.path.join(E2E, "tests", "fixture_trace.json")
    rows, wall = stage_table(reduce_trace(fixture))
    table = {name: us for name, us, _ in rows}
    # Round 1 runs pipeline_select in the server round and again in the probe.
    assert table["round/pipeline_select"] == 18.0, table
    assert table["probe/pipeline_select"] == 19.0, table
    assert abs(sum(table.values()) - wall) < 1e-6, (table, wall)

    with open(fixture, encoding="utf-8") as f:
        doc = json.load(f)
    for e in doc["traceEvents"]:  # round 1's probe now starts inside the server round
        if e["ph"] == "X" and e["name"] == "stage_probe" and e["args"]["round"] == 1:
            e["ts"] -= 10
    with tempfile.TemporaryDirectory() as d:
        for name, text in (("overlap.json", json.dumps(doc)), ("broken.json", '{"traceEvents": [')):
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            try:
                reduce_trace(path)
                raise AssertionError(f"{name} was accepted")
            except SystemExit as e:
                assert path in str(e.code), e.code

        jsonl = os.path.join(d, "metrics.jsonl")
        with open(jsonl, "w", encoding="utf-8") as f:
            f.writelines(json.dumps({"round": m, "counters": {"validate.checked": 4 * m}}) + "\n"
                         for m in (1, 2, 3))
        loaded = load_jsonl(jsonl)
        assert loaded[-1]["counters"]["validate.checked"] == 12
    print_stage_table(reduce_trace(fixture))
    print_top_counters(loaded, top=5)
    table = print_diff(fixture, fixture)
    assert all(a == b for _, a, b in table), table
    names = [name for name, _, _ in table]
    assert names.index("round/pipeline_select") < names.index("probe/pipeline_select"), names
    assert names[-1] == "wall", names
    print("trace_summary smoke OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jsonl", nargs="?", help="round-metrics JSONL file")
    ap.add_argument("--top", type=int, default=10, help="counters to show (default 10)")
    ap.add_argument("--chrome", help="Chrome trace-event JSON file to reduce")
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare the per-round self times of two Chrome traces")
    ap.add_argument("--smoke", action="store_true", help="run the self-check and exit")
    args = ap.parse_args()

    if args.smoke:
        smoke()
        return
    if args.diff:
        print_diff(*args.diff)
        return
    if not args.jsonl:
        ap.error("JSONL path required (or --smoke)")
    rows = load_jsonl(args.jsonl)
    if args.chrome:
        print_stage_table(reduce_trace(args.chrome))
    else:
        print("span times need the Chrome trace: pass --chrome TRACE.json")
    print_top_counters(rows, args.top)


if __name__ == "__main__":
    # Behave like any other Unix filter when the reader goes away early
    # (`trace_summary.py ... | head`): die quietly of SIGPIPE instead of
    # raising BrokenPipeError at the next print.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    main()

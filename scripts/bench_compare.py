#!/usr/bin/env python3
"""Diff two BENCH_micro.json files (as written by bench/emit_json).

Usage: bench_compare.py OLD.json NEW.json [--threshold PCT] [--metric ns|speedup]
                        [--filter REGEX]

Prints a per-kernel table of deltas and exits nonzero when any kernel
regressed by more than --threshold percent (default 25). --filter restricts
the comparison (and the gate) to kernel names matching REGEX — CI uses it to
run the fleet-scale comparison separately from the microkernel gate.

Metrics:
  ns       raw ns/op (default) — for two runs on the SAME machine, e.g.
           before/after a local change:
               ./build/emit_json /tmp/before.json   # on the old commit
               ./build/emit_json /tmp/after.json    # on the new commit
               scripts/bench_compare.py /tmp/before.json /tmp/after.json
  speedup  each optimized kernel's speedup_vs_baseline ratio (new kernel vs
           its retained seed kernel, measured within one run) — portable
           across machines, so CI can gate a fresh run against the committed
           BENCH_micro.json from the reference box. Kernels without a baseline
           are skipped.

Each file written by emit_json opens with a "host" manifest (core count, CPU
model, compiler, flags, build type, git sha). A warning is printed when the
two files come from different hosts or builds, or when either has no
manifest: ratios such as sharded-vs-serial speedups depend on the core
count, so such a comparison is not like for like. The warning never changes
the exit status.
"""

import argparse
import json
import re
import sys


# Manifest fields that must agree for two runs to count as the same host and
# build; git_sha and git_dirty may differ (that is the change being measured).
HOST_KEYS = ("nproc", "cpu_model", "compiler", "flags", "build_type")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("host"), {k["name"]: k for k in doc.get("kernels", [])}


def host_warnings(old_path, old_host, new_path, new_host):
    """Warnings for a comparison whose two sides may not share a host."""
    missing = [p for p, h in ((old_path, old_host), (new_path, new_host)) if not h]
    if missing:
        return ["warning: no host manifest in %s; cannot tell whether both runs "
                "share a host" % " and ".join(missing)]
    return ["warning: runs come from different hosts or builds: %s differs "
            "(%r vs %r)" % (key, old_host.get(key), new_host.get(key))
            for key in HOST_KEYS if old_host.get(key) != new_host.get(key)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="max tolerated regression in percent (default 25)")
    ap.add_argument("--metric", choices=("ns", "speedup"), default="ns",
                    help="ns: raw ns/op (same-machine runs); speedup: "
                         "speedup_vs_baseline ratios (cross-machine safe)")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="only compare kernels whose name matches REGEX")
    args = ap.parse_args()

    try:
        (old_host, old), (new_host, new) = load(args.old), load(args.new)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for warning in host_warnings(args.old, old_host, args.new, new_host):
        print(warning, file=sys.stderr)
    if args.filter:
        try:
            pat = re.compile(args.filter)
        except re.error as e:
            print(f"error: bad --filter regex: {e}", file=sys.stderr)
            return 2
        old = {n: k for n, k in old.items() if pat.search(n)}
        new = {n: k for n, k in new.items() if pat.search(n)}
    metric_key = "speedup_vs_baseline" if args.metric == "speedup" else "ns_per_op"
    raw_old, raw_new = old, new
    old = {n: k for n, k in old.items() if metric_key in k}
    new = {n: k for n, k in new.items() if metric_key in k}
    # Kernels present on only one side (a bench added or retired in this
    # change) are expected when a PR lands new benches together with a fresh
    # baseline: warn and skip them instead of failing the comparison. A
    # kernel present in both files but missing the metric on one side is a
    # malformed entry, not an added/retired bench — say so.
    for name in sorted(set(old) ^ set(new)):
        if name in raw_old and name in raw_new:
            side = "baseline" if name not in old else "fresh run"
            print(f"warning: kernel '{name}' lacks {metric_key} in {side} — skipped",
                  file=sys.stderr)
        else:
            side = "baseline" if name in old else "fresh run"
            print(f"warning: kernel '{name}' only in {side} — skipped", file=sys.stderr)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no kernels in common between the two files", file=sys.stderr)
        return 2

    regressions = []

    def fmt_ns(kernel):
        ns = kernel.get("ns_per_op")
        return f"{ns:.0f}" if ns is not None else "-"

    def fmt_rss(kernel):
        rss = kernel.get("peak_rss_mb")
        return f"{rss:.0f}" if rss is not None else "-"

    # Peak-RSS columns are informational (not gated): memory-heavy benches
    # like the fleet rounds report peak_rss_mb, and a footprint shift is as
    # interesting as a time shift even though RSS is too machine- and
    # allocator-dependent to fail CI on.
    has_rss = any("peak_rss_mb" in k for m in (old, new) for k in m.values())

    label = "ns/op" if args.metric == "ns" else "speedup"
    header = f"{'kernel':<34} {'old ' + label:>13} {'new ' + label:>13} {'delta':>8}"
    if args.metric == "speedup":
        # Absolute ns/op alongside the gated ratio: when a ratio drops, the
        # ns columns show WHERE it landed — the optimized kernel slowing
        # down reads very differently from its seed baseline speeding up.
        header += f" {'old ns':>12} {'new ns':>12}"
    if has_rss:
        header += f" {'old rssMB':>10} {'new rssMB':>10} {'rss delta':>10}"
    print(header)
    for name in shared:
        if args.metric == "ns":
            o, n = old[name]["ns_per_op"], new[name]["ns_per_op"]
            # ns: larger is worse.
            delta = (n - o) / o * 100.0 if o else 0.0
        else:
            o, n = old[name]["speedup_vs_baseline"], new[name]["speedup_vs_baseline"]
            # speedup: smaller is worse.
            delta = (o - n) / o * 100.0 if o else 0.0
        flag = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            flag = "  <-- REGRESSION"
        row = f"{name:<34} {o:>13.2f} {n:>13.2f} {delta:>+7.1f}%"
        if args.metric == "speedup":
            row += f" {fmt_ns(old[name]):>12} {fmt_ns(new[name]):>12}"
        if has_rss:
            o_rss = old[name].get("peak_rss_mb")
            n_rss = new[name].get("peak_rss_mb")
            if o_rss and n_rss:
                rss_delta = f"{(n_rss - o_rss) / o_rss * 100.0:+.1f}%"
            else:
                rss_delta = "-"
            row += f" {fmt_rss(old[name]):>10} {fmt_rss(new[name]):>10} {rss_delta:>10}"
        print(row + flag)

    if regressions:
        print(f"\n{len(regressions)} kernel(s) regressed past {args.threshold}%",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

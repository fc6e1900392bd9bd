#!/usr/bin/env python3
"""End-to-end round benchmark for the fedsparse simulator.

    python3 e2e_bench/run.py --workload paper_alg3 --seed 1 --seconds 20 --trace 0

Builds e2e_bench/ (which compiles the library from src/) into .bench_build/
on first use, runs one workload of BENCHMARK.json in its own e2e_round
process, checks the outputs, and prints the host/build manifest, the outcome
digests, a table of every metric with its unit, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, timed from outside with telemetry off. With
--trace 1 half the sub-seed panel runs untraced and then with telemetry on,
each Chrome trace is reduced by trace_reduce.py, and the metrics are the
per-layer ones (METRICS.md says what each measures); its table also lists the
end-to-end metrics of the untraced half panel.

Checks behind `failed`: each repetition must finish, keep every eval loss
finite, keep k inside [1, D], and produce the same outcome digest as every
other repetition of its sub-seed (traced or not); a traced round's self times
must add up to its wall time.

Tests of the reducer and the digest: python3 -m unittest discover -s e2e_bench/tests
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import struct
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import trace_reduce as tr

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CHILD_TIMEOUT_S = 170
STAGES = ("begin", "schedule", "compute", "server_round", "probe", "apply", "account", "record")
PIPELINE = ("select", "screen", "aggregate", "robust_aggregate", "resets", "emit")
KD_BINS = ((0.0, 0.01, "kd_0-0.01"), (0.01, 0.1, "kd_0.01-0.1"), (0.1, 0.3, "kd_0.1-0.3"),
           (0.3, 1.01, "kd_0.3-1"))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sh(cmd, **kw):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, **kw)


def build():
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "e2e_bench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(nproc()), "--target", "e2e_round"])
    for cmd in steps:
        p = sh(cmd)
        if p.returncode != 0:
            log(p.stdout + p.stderr)
            sys.exit("build failed: " + " ".join(cmd))
    return cmake_dir


def manifest(cmake_dir, args, threads, shards):
    cache = (cmake_dir / "CMakeCache.txt").read_text()

    def cached(key):
        m = re.search(r"^%s:[A-Z]+=(.*)$" % key, cache, re.M)
        return m.group(1) if m else None

    compiler = cached("CMAKE_CXX_COMPILER")
    version = sh([compiler, "--version"]).stdout.splitlines()[0] if compiler else None
    flags = None
    for entry in json.loads((cmake_dir / "compile_commands.json").read_text()):
        if "/src/" in entry["file"]:
            words = entry["command"].split()[1:]
            skip = {"-o", "-c"}
            flags = " ".join(w for i, w in enumerate(words)
                             if w.startswith("-") and w not in skip
                             and not w.startswith("-I") and words[i - 1] not in skip)
            break
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = sh(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    h = hashlib.sha256()
    for top in ("src", "e2e_bench", "CMakeLists.txt"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted((ROOT / top).rglob("*"))
        for p in paths:
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": nproc(), "cpu_model": cpu, "compiler": version,
        "flags": flags, "build_type": cached("CMAKE_BUILD_TYPE"),
        "git_sha": git.stdout.strip() if git is not None and git.returncode == 0 else None,
        "source_sha256": h.hexdigest(), "threads": threads, "shards": shards,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
    }


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


def loss(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def check_rep(rep):
    """Per-repetition output checks; returns a list of problems."""
    if "error" in rep:
        return ["threw"]
    problems = []
    rounds = rep["rounds"]
    if len(rep["k_used"]) != rounds or rounds == 0:
        problems.append("round count")
    if any(k < 1 or k > rep["dim"] for k in rep["k_used"]):
        problems.append("k outside [1, D]")
    for m in range(1, rounds + 1):
        if (m % rep["eval_every"] == 0 or m == rounds) and \
                not math.isfinite(loss(rep["global_loss_bits"][m - 1])):
            problems.append("non-finite eval loss in round %d" % m)
    if not math.isfinite(loss(rep["final_loss_bits"])):
        problems.append("non-finite final loss")
    return problems


def over_subs(reps, value, combine):
    """Median over each sub-seed's repetitions, then `combine` over the
    sub-seeds, so every run weighs the same panel of inputs equally."""
    by_sub = defaultdict(list)
    for r in reps:
        by_sub[r["sub"]].append(value(r))
    return combine([statistics.median(v) for v in by_sub.values()])


def mean_over_subs(reps, value):
    return over_subs(reps, value, statistics.fmean)


def median_over_subs(reps, value):
    """For times: a sub-seed whose repetitions all fell into a spell of
    stolen CPU on a shared host moves a median far less than a mean."""
    return over_subs(reps, value, statistics.median)


def end_to_end(timed, all_untraced, peak_rss_kb):
    return {
        "round_ms": median_over_subs(timed, lambda r: 1e3 * r["run_s"] / r["rounds"]),
        "cpu_ms_per_round": median_over_subs(timed, lambda r: 1e3 * r["cpu_s"] / r["rounds"]),
        "setup_s": statistics.median(r["make_synthetic_s"] + r["sim_ctor_s"]
                                     for r in all_untraced),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "wire_mb_per_round": mean_over_subs(
            timed, lambda r: 4e-6 * (r["uplink_values"] + r["downlink_values"]) / r["rounds"]),
        "final_loss": mean_over_subs(timed, lambda r: loss(r["final_loss_bits"])),
    }


def per_layer(timed, all_untraced, traced, reduced):
    """reduced: [(rep, [round reductions in round order])] for traced reps."""
    sums = defaultdict(float)
    walls, selected, bins = [], [], defaultdict(lambda: [0.0, 0.0])
    shard_max = shard_mean = server_ns = 0.0
    n = 0
    for rep, rounds in reduced:
        for m, r in enumerate(rounds):
            n += 1
            walls.append(r["wall_us"] / 1e3)
            for stage in STAGES:
                key = "stage_" + stage
                sums["self." + stage] += r["stage_self_us"].get(key, 0.0) / 1e3
                sums["incl." + stage] += r["stage_incl_us"].get(key, 0.0) / 1e3
            for (phase, name), us in r["nested_self_us"].items():
                sums["%s.%s" % (phase, name.replace("pipeline_", ""))] += us / 1e3
            sums["unspanned"] += r["unspanned_us"] / 1e3
            sums["shard_busy"] += r["shard_busy_us"] / 1e3
            shard_max += r["shard_max_us"]
            shard_mean += r["shard_mean_us"]
            entries = rep["k_used"][m] * rep["participants"][m]
            selected.append(entries)
            ns = r["stage_incl_us"].get("stage_server_round", 0.0) * 1e3
            server_ns += ns
            kd = rep["k_used"][m] / rep["dim"]
            for lo, hi, name in KD_BINS:
                if lo <= kd < hi:
                    bins[name][0] += ns
                    bins[name][1] += entries
    per_round = {k: v / n for k, v in sums.items()}
    records = [rep for rep, _ in reduced]

    def per_round_mean(key):
        return statistics.fmean(x for rep in records for x in rep[key])

    untraced_ms = defaultdict(list)
    for r in timed:
        untraced_ms[r["sub"]].append(r["run_s"] / r["rounds"])
    traced_ms = defaultdict(list)
    for r in traced:
        traced_ms[r["sub"]].append(r["run_s"] / r["rounds"])
    overhead = statistics.fmean(
        statistics.median(traced_ms[s]) / statistics.median(untraced_ms[s]) - 1.0
        for s in traced_ms)
    tail = tr.tail_percentile(len(walls))

    out = {
        "fl.compute_ms": per_round["self.compute"],
        "fl.probe_ms": per_round["incl.probe"],
        "fl.unspanned_ms": per_round["unspanned"],
        "sparsify.round.self_ms": per_round["self.server_round"],
        "sparsify.probe.self_ms": per_round["self.probe"],
        "sparsify.selected_entries": statistics.fmean(selected),
        "sparsify.ns_per_selected": server_ns / max(1, sum(selected)),
        "sparsify.shard_busy_ms": per_round["shard_busy"],
        "sparsify.shard_imbalance": shard_max / shard_mean if shard_mean > 0 else 1.0,
        "fl.round_wall_ms.p50": tr.percentile(walls, 50),
        "fl.round_wall_ms.tail": tr.percentile(walls, tail),
        "fl.round_wall_ms.tail_pct": tail,
        "fl.traced_rounds": n,
        "data.make_synthetic_s": statistics.median(r["make_synthetic_s"] for r in all_untraced),
        "fl.sim_ctor_s": statistics.median(r["sim_ctor_s"] for r in all_untraced),
        "faults.dropped": per_round_mean("dropped"),
        "validate.rejected": per_round_mean("rejected"),
        "robust.suspects": per_round_mean("suspects"),
        "fl.mean_staleness": per_round_mean("mean_staleness"),
        "online.k_mean": per_round_mean("k_used"),
        "online.invalid_probe_rounds": statistics.fmean(
            rep["invalid_probe_rounds"] for rep in records),
        "telemetry.overhead_pct": 100.0 * overhead,
    }
    for stage in ("begin", "schedule", "apply", "account", "record"):
        out["fl.%s_ms" % stage] = per_round["self." + stage]
    for phase in ("round", "probe"):
        for name in PIPELINE:
            # No workload screens or aggregates robustly while it probes.
            if phase == "probe" and name in ("screen", "robust_aggregate"):
                continue
            out["sparsify.%s.%s_ms" % (phase, name)] = per_round.get("%s.%s" % (phase, name), 0.0)
    for _, _, name in KD_BINS:
        ns, entries = bins[name]
        out["sparsify.ns_per_selected." + name] = ns / entries if entries else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cmake_dir = build()
    cmd = [str(cmake_dir / "e2e_round"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
    trace_dir = BUILD / "traces" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd.append("--trace-dir=" + str(trace_dir))
    env = dict(os.environ, FEDSPARSE_LOG="info")
    ticks0 = cpu_ticks()
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(trace_dir, ignore_errors=True)
        sys.exit("e2e_round did not finish within %d s" % CHILD_TIMEOUT_S)
    ticks1 = cpu_ticks()
    if p.returncode != 0:
        log(p.stderr)
        shutil.rmtree(trace_dir, ignore_errors=True)
        sys.exit("e2e_round failed (exit %d)" % p.returncode)
    lines = [json.loads(l) for l in p.stdout.splitlines() if l.startswith("{")]
    shard_logs = re.findall(r"(\d+) workspaces, (\d+) shards", p.stderr)
    shards = int(shard_logs[0][1]) if shard_logs else None
    threads, peak_rss_kb = lines[-1]["threads"], lines[-1]["peak_rss_kb"]
    reps = lines[:-1]

    # Output checks: per repetition, then digest agreement per sub-seed.
    problems = {r["rep"]: check_rep(r) for r in reps}
    digests = defaultdict(dict)
    for r in reps:
        if not problems[r["rep"]]:
            digests[r["sub"]][r["rep"]] = tr.outcome_digest(r)
    for sub, by_rep in digests.items():
        first = next(iter(by_rep.values()))
        for rep, d in by_rep.items():
            if d != first:
                problems[rep].append("digest differs from sub-seed %d's first run" % sub)

    ok = [r for r in reps if not problems[r["rep"]]]
    all_untraced = [r for r in ok if not r["traced"]]
    timed = [r for r in all_untraced if r["rep"] > 0]  # rep 0 is the warm-up
    traced = [r for r in ok if r["traced"]]
    reduced = []
    for r in traced:
        rounds = tr.load_rounds(trace_dir / ("rep%d.json" % r["rep"]))
        reductions = [tr.reduce_round(rounds[m]) for m in sorted(rounds)]
        bad = [i + 1 for i, x in enumerate(reductions) if abs(tr.share_sum_pct(x) - 100) > 0.5]
        if len(reductions) != r["rounds"] or bad:
            problems[r["rep"]].append("trace does not account for rounds %s" % bad)
        else:
            reduced.append((r, reductions))
    shutil.rmtree(trace_dir, ignore_errors=True)
    failed = sum(1 for v in problems.values() if v)

    print("manifest: " + json.dumps(manifest(cmake_dir, args, threads, shards)))
    # A virtual machine's wall times stretch when the hypervisor runs other
    # guests on its CPUs; this says how much of that the run saw.
    print("host: %.1f%% of CPU time stolen during the run" % (
        100.0 * (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])))
    for r in reps:
        if "error" not in r:
            kind = " warm-up" if r["rep"] == 0 else " traced" if r["traced"] else ""
            print("rep %d sub-seed %d%s: %.1f ms/round, %.1f CPU ms/round, setup %.3f s" % (
                r["rep"], r["sub"], kind, 1e3 * r["run_s"] / r["rounds"],
                1e3 * r["cpu_s"] / r["rounds"],
                r["make_synthetic_s"] + r["sim_ctor_s"]))
    combined = tr.FNV_OFFSET
    for sub in sorted(digests):
        d = next(iter(digests[sub].values()))
        combined = tr.fnv1a64(struct.pack("<Q", d), combined)
        print("digest: sub-seed %d %016x (%d runs)" % (sub, d, len(digests[sub])))
    print("digest: combined %016x" % combined)
    for rep, v in sorted(problems.items()):
        for problem in v:
            print("FAILED rep %d: %s" % (rep, problem))
    if not timed or (args.trace and not reduced):
        # Nothing left to measure: report the failure instead of metrics.
        print(json.dumps({"correct": False, "attempted": len(reps), "failed": failed,
                          "metrics": {}}))
        return
    print("loss: round-1 train %.4f -> final eval %.4f nat (mean over the timed runs)" % (
        statistics.fmean(loss(r["train_loss_bits"][0]) for r in timed),
        statistics.fmean(loss(r["final_loss_bits"]) for r in timed)))
    values = end_to_end(timed, all_untraced, peak_rss_kb)
    if args.trace:
        values.update(per_layer(timed, all_untraced, traced, reduced))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, v in sorted(values.items()):
        print("%-40s %16.6f %s" % (name, v, units[name]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

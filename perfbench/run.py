#!/usr/bin/env python3
"""The repository's benchmark: builds the driver from source, runs one
workload, checks its outputs, and prints its metrics.

    python3 perfbench/run.py --workload embed-fr|serve-read|serve-refresh
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The driver is built with CMake under
$CARGO_TARGET_DIR (default .bench_build). --trace 0 measures the end-to-end
metrics; --trace 1 records spans and reports the per-layer metrics instead.
The last line of stdout is one JSON object:
{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}.
The exit status is non-zero when a check fails or the build or run fails.
README.md lists the workloads and maps every metric to its layer.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("embed-fr", "serve-read", "serve-refresh")
DEFAULT_SEED = 0
DRIVER_TIMEOUT_S = 170

# embed-fr at the default seed: FR's registry graph, so the simulated total
# is the 15.97 s the CLI reports for `--graph FR --system omega --threads 4`.
PINNED_EMBED_SIM_S = 15.96773354361035
PINNED_EMBED_MD5 = "b7032de468473ba06a86f66eb38429b8"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(HERE.parent / ".bench_build")
    return Path(base).resolve() / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", str(out), "--target", "perfbench_driver",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return out / "perfbench_driver"


def run_driver(driver, args, spans_path):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    # A fixed mmap threshold: glibc's default one adapts to the order in
    # which pool threads free large blocks, which moved embed-fr's peak RSS
    # by +-10% between identical runs; fixed, it repeats to 0.1%.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(4 << 20))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        return None
    if proc.returncode:
        log(f"driver exited with status {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- End-to-end metrics ---------------------------------------------------

def open_latency(raw):
    """Open-loop latencies, or None when the backlog kept growing."""
    s = raw["samples"]
    if stats.backlog_growing(s["open.backlog_quarters"]):
        return None
    return s["open.latency_ms"]


def end_to_end(workload, raw):
    """(gated metrics, the issue-named metrics of this workload). Each is
    a list of (name, value, unit); a value of None could not be measured.
    Every workload reports every gated metric over its own foreground
    operation (README.md): one RunEmbedding on embed-fr, one open-loop read
    on the serving workloads."""
    v, s = raw["values"], raw["samples"]
    common = [("setup_s", stats.median(raw["setup_s"]), "s"),
              ("peak_rss_mb", raw["peak_rss_mb"], "MB")]
    named = list(common)
    if workload == "embed-fr":
        embed_s = stats.median(s["embed_s"])
        op = [("op_p50_ms", embed_s * 1e3, "ms"),
              ("op_sim_ms", v["embed_sim_s"] * 1e3, "ms")]
        named += [("embed_s", embed_s, "s"),
                  ("embed_sim_s", v["embed_sim_s"], "s")]
        return common + op, named
    lat = open_latency(raw)
    p50 = stats.percentile(lat, 50) if lat else None
    p99 = (stats.percentile(lat, 99)
           if lat and stats.has_support(len(lat), 99) else None)
    # Simulated cost per read over the open loop, whose arrivals the seed
    # fixes; the closed loop's share of completions follows host speed.
    completed = v["open.completed"]
    sim_s = v["open.sim_s"]
    if workload == "serve-read":
        named += [("read_qps", v["closed.completed"] / v["closed.wall_s"], "req/s")]
    op = [("op_p50_ms", p50, "ms"),
          ("op_sim_ms", sim_s * 1e3 / completed if completed else None, "ms")]
    named += [("read_p50_ms", p50, "ms"), ("read_p99_ms", p99, "ms"),
              ("read_sim_qps", completed / sim_s if sim_s else None, "req/s")]
    if workload == "serve-refresh":
        upd = s["update_ms"]
        named += [("update_p50_ms", stats.percentile(upd, 50), "ms"),
                  ("update_p90_ms", stats.percentile(upd, 90)
                   if stats.has_support(len(upd), 90) else None, "ms"),
                  ("update_sim_ms", stats.mean(s["update_sim_ms"]), "ms")]
    return common + op, named


# ---- Per-layer metrics ----------------------------------------------------

# name -> (unit, the end-to-end metric it feeds, on which workload).
PER_LAYER = {
    "graph.rmat_s": ("s", "setup_s (embed-fr, serve-refresh)"),
    "graph.csdb_build_s": ("s", "embed_s (embed-fr)"),
    "graph.csdb_touched_rows": ("count", "update_p50_ms (serve-refresh)"),
    "graph.csdb_reused_rows": ("count", "update_p50_ms (serve-refresh)"),
    "embed.matrices_s": ("s", "embed_s (embed-fr)"),
    "sparse.spmm_wall_s": ("s", "embed_s (embed-fr)"),
    "sparse.spmm_calls": ("count", "embed_s (embed-fr)"),
    "sparse.spmm_flops": ("flop", "embed_s (embed-fr)"),
    "sparse.spmm_gflops": ("Gflop/s", "embed_s (embed-fr)"),
    "numa.plan_build_wall_s": ("s", "embed_s (embed-fr)"),
    "numa.plan_hits": ("count", "embed_s (embed-fr)"),
    "numa.plan_misses": ("count", "embed_s (embed-fr)"),
    "sparse.spmm_sim_s": ("s", "embed_sim_s (embed-fr)"),
    "prefetch.wofp_build_sim_s": ("s", "embed_sim_s (embed-fr)"),
    "stream.asl_loads": ("count", "embed_sim_s (embed-fr)"),
    "stream.asl_load_sim_s": ("s", "embed_sim_s (embed-fr)"),
    "engine.unattributed_s": ("s", "embed_s (embed-fr)"),
    "engine.dense_sim_s": ("s", "embed_sim_s (embed-fr)"),
    "engine.read_sim_s": ("s", "embed_sim_s (embed-fr)"),
    "engine.refresh_ms_p50": ("ms", "update_p50_ms (serve-refresh)"),
    "engine.refresh_affected_rows_mean": ("count", "update_p50_ms (serve-refresh)"),
    "engine.refresh_sync_sim_s": ("s", "update_sim_ms (serve-refresh)"),
    "engine.refresh_delta_sim_s": ("s", "update_sim_ms (serve-refresh)"),
    "engine.refresh_recurrence_sim_s": ("s", "update_sim_ms (serve-refresh)"),
    "serve.submit_us_p50": ("us", "read_p50_ms (serve-*)"),
    "serve.submit_us_p99": ("us", "read_p50_ms (serve-*)"),
    "serve.batch_size_mean": ("count", "read_sim_qps, read_qps (serve-*)"),
    "serve.cache_hit_rate": ("ratio", "read_sim_qps, read_qps (serve-*)"),
    "serve.rejected": ("count", "failed_ratio (serve-*)"),
    "serve.backlog_max": ("count", "read_p99_ms (serve-*)"),
    "serve.refresh_rows_ms_p50": ("ms", "read_p99_ms (serve-refresh)"),
    "serve.refresh_rows_ms_max": ("ms", "read_p99_ms (serve-refresh)"),
    "serve.refreshed_hot": ("count", "read_sim_qps (serve-refresh)"),
    "serve.refresh_invalidated": ("count", "read_sim_qps (serve-refresh)"),
    "serve.read_p999_ms": ("ms", "read_p99_ms (serve-*)"),
    "memsim.dram_bytes": ("B", "embed_sim_s, read_sim_qps"),
    "memsim.pm_bytes": ("B", "embed_sim_s, read_sim_qps"),
    "memsim.remote_fraction": ("ratio", "embed_sim_s, read_sim_qps"),
    "loadgen.lag_p99_ms": ("ms", "read_p99_ms (serve-*)"),
    "loadgen.lag_max_ms": ("ms", "read_p99_ms (serve-*)"),
    "trace.overhead_s": ("s", "embed_s (embed-fr), read_p50_ms (serve-*)"),
    "failed_ratio": ("ratio", "failed_ratio (all)"),
}


def median_traced_rep(raw):
    """Group id of the traced embed-fr repetition with the median time."""
    s = raw["samples"]
    reps = sorted(zip(s["traced_embed_s"], s["traced_groups"]))
    return int(reps[(len(reps) - 1) // 2][1]) if reps else None


def per_layer(workload, raw, spans, failed_ratio):
    """Every per-layer metric; layers a workload never calls read 0."""
    v, s = raw["values"], raw["samples"]
    m = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in v:
            m[name] = v[name]
    m["failed_ratio"] = failed_ratio
    m["trace.overhead_s"] = raw["trace_overhead_s"]
    if "graph.rmat_s" in s:
        m["graph.rmat_s"] = stats.median(s["graph.rmat_s"])
    if workload == "embed-fr":
        group = median_traced_rep(raw)
        by_name = stats.self_time_by_name(spans, group)
        m["sparse.spmm_wall_s"] = by_name.get("sparse.spmm", 0.0)
        m["numa.plan_build_wall_s"] = by_name.get("numa.plan_build", 0.0)
        m["engine.unattributed_s"] = by_name.get("engine.run_embedding", 0.0)
        if m["sparse.spmm_wall_s"] > 0:
            m["sparse.spmm_gflops"] = (m["sparse.spmm_flops"] /
                                       m["sparse.spmm_wall_s"] / 1e9)
        if s["traced_embed_s"] and s["embed_s"]:
            m["trace.overhead_s"] = (stats.median(s["traced_embed_s"]) -
                                     stats.median(s["embed_s"]))
        return m
    phases = ["open."] + (["closed."] if workload == "serve-read" else [])
    total = lambda key: sum(v[p + key] for p in phases)  # noqa: E731
    submit = s["open.submit_us"]
    m["serve.submit_us_p50"] = stats.percentile(submit, 50) or 0.0
    m["serve.submit_us_p99"] = stats.percentile(submit, 99) or 0.0
    if total("batches"):
        m["serve.batch_size_mean"] = total("server_completed") / total("batches")
    lookups = total("cache_hits") + total("cache_misses")
    if lookups:
        m["serve.cache_hit_rate"] = total("cache_hits") / lookups
    m["serve.rejected"] = total("rejected")
    m["serve.backlog_max"] = v["open.backlog_max"]
    m["serve.refreshed_hot"] = v["open.refreshed_hot"]
    m["serve.refresh_invalidated"] = v["open.refresh_invalidated"]
    lat = s["open.latency_ms"]
    if stats.has_support(len(lat), 99.9):
        m["serve.read_p999_ms"] = stats.percentile(lat, 99.9)
    m["memsim.dram_bytes"] = total("dram_bytes")
    m["memsim.pm_bytes"] = total("pm_bytes")
    m["memsim.remote_fraction"] = v["open.remote_fraction"]
    lag = s["open.lag_ms"]
    m["loadgen.lag_p99_ms"] = stats.percentile(lag, 99) or 0.0
    m["loadgen.lag_max_ms"] = max(lag) if lag else 0.0
    if workload == "serve-refresh":
        m["engine.refresh_ms_p50"] = stats.percentile(s["engine.refresh_ms"], 50) or 0.0
        m["engine.refresh_affected_rows_mean"] = (
            stats.mean(s["engine.refresh_affected_rows"]) or 0.0)
        rows = s["serve.refresh_rows_ms"]
        m["serve.refresh_rows_ms_p50"] = stats.percentile(rows, 50) or 0.0
        m["serve.refresh_rows_ms_max"] = max(rows) if rows else 0.0
    return m


# ---- Checks and reporting -------------------------------------------------

def pinned_checks(args, raw):
    """Extra checks at the default seed; each failing one fails one op."""
    if args.workload != "embed-fr" or args.seed != DEFAULT_SEED:
        return {}
    v = raw["values"]
    return {
        "default_seed_embed_sim_s": {
            "checked": 1, "failed": int(v["embed_sim_s"] != PINNED_EMBED_SIM_S)},
        "default_seed_embedding_md5": {
            "checked": 1, "failed": int(v["embedding_md5"] != PINNED_EMBED_MD5)},
    }


def table(rows, headers):
    widths = [max(len(str(r[i])) for r in rows + [headers])
              for i in range(len(headers))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*map(str, r)) for r in rows]
    return "\n".join(lines)


def tail_line(label, values):
    """The highest percentile the sample supports (stats.tail_percentile)."""
    p = stats.tail_percentile(len(values))
    if p is None:
        return f"{label}: n={len(values)}, too few samples for a tail"
    return (f"{label}: n={len(values)}, p{p:g} = "
            f"{stats.percentile(values, p):.6g} ms")


def show(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    if driver is None:
        log("build failed")
        return 1
    spans_path = build_dir() / f"spans-{args.workload}.json"
    raw = run_driver(driver, args, spans_path)
    if raw is None:
        return 1

    checks = dict(raw["checks"])
    checks.update(pinned_checks(args, raw))
    failed = stats.failure_count(raw["op_failures"], checks)
    attempted = int(raw["attempted"])
    ratio = stats.failed_ratio(attempted, failed)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(table([(n, c["checked"], c["failed"]) for n, c in checks.items()],
                ("check", "checked", "failed")))

    gated, named = end_to_end(args.workload, raw)
    named.append(("failed_ratio", ratio, "ratio"))
    correct = failed == 0 and all(val is not None for _, val, _ in gated)
    if args.workload != "embed-fr" and open_latency(raw) is None:
        print("open-loop backlog kept growing: latency not reported")
    if args.trace:
        spans = json.loads(spans_path.read_text())
        layer = per_layer(args.workload, raw, spans, ratio)
        print(table([(n, show(layer[n]), PER_LAYER[n][0], PER_LAYER[n][1])
                     for n in PER_LAYER], ("per-layer metric", "value", "unit",
                                           "feeds")))
        by_layer = stats.self_time_by_layer(spans)
        print(table(sorted((k, f"{t:.6f}") for k, t in by_layer.items()),
                    ("layer", "self s")))
        if args.workload == "embed-fr":
            parts = (layer["sparse.spmm_wall_s"] + layer["numa.plan_build_wall_s"]
                     + layer["engine.unattributed_s"])
            group = median_traced_rep(raw)
            root = next(sp[5] for sp in spans if sp[0] == group)
            print(f"traced repetition: spmm + plan build + unattributed = "
                  f"{parts:.9f} s, embed_s = {root:.9f} s")
        metrics = {n: {"value": layer[n], "unit": PER_LAYER[n][0]}
                   for n in PER_LAYER}
    else:
        print(table([(n, show(val), unit) for n, val, unit in named],
                    ("metric", "value", "unit")))
        if args.workload != "embed-fr":
            print(tail_line("open-loop reads", raw["samples"]["open.latency_ms"]))
        if args.workload == "serve-refresh":
            print(tail_line("updates", raw["samples"]["update_ms"]))
        metrics = {n: {"value": val, "unit": unit}
                   for n, val, unit in gated if val is not None}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

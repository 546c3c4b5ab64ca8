#!/usr/bin/env python3
"""Entry point of the Seer benchmark.

    python3 perfbench/run.py --workload wire-hot|inproc-cold \
        --seed N --seconds S --trace 0|1

Builds the program under test and seerbench from the sources of this
checkout (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), runs one workload in a private directory under .bench_runs,
prints every metric by name with its unit and sample count, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Exits nonzero on any wrong answer.
NOTES.md explains the workloads and every metric.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("wire-hot", "inproc-cold")
# seerbench's time limit: its set-up and pipelines, plus the timed
# windows (an untraced one, and a traced one of half its length).
SEERBENCH_SETUP_ALLOWANCE_S = 60
SEERBENCH_WINDOW_FACTOR = 3
BUILD_TARGETS = ("seerbench", "seer_serve", "seer_lb")


class Terminated(Exception):
    pass


def _on_signal(signum, frame):
    raise Terminated(signum)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once and builds seerbench and both servers; make keeps
    rebuilds incremental."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j4", "--target",
                    *BUILD_TARGETS], check=True, stdout=sys.stderr)
    return bdir


def cpu_jiffies():
    """(all, steal) CPU time of the machine so far, from /proc/stat."""
    fields = [int(f) for f in
              Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return sum(fields), fields[7]


def host_block(bdir, result, steal_share):
    cache = (bdir / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    digest = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(),
            "hardware_threads": result["hardware_threads"],
            "compiler": "g++ " + result["compiler"],
            "build_type": build_type,
            "commit": commit or "unknown (not a git checkout)",
            # Share of CPU time the host took from this machine during the
            # run: the host's own load, which slows every figure (NOTES.md).
            "cpu_steal_share": round(steal_share, 4),
            "source_sha256": digest.hexdigest()[:16]}


def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


# -- End-to-end metrics ------------------------------------------------------

def op_latency(window, op):
    return window["latency_us"].get(op, [])


def untraced_pipelines(result):
    return [p for p in result["pipelines"].values() if not p["traced"]]


def end_to_end(result):
    """{name: (value, samples)} of every end-to-end metric."""
    w = result["window"]
    opens = (result["opens"] if result["workload"] == "wire-hot" else w)
    out = {}
    setup = result["setup_s"]
    out["setup_s"] = (statistics.median(setup), len(setup))
    # The median over the window's rounds, so a few disturbed seconds of
    # the host move it little.
    rounds = result["round_rps"]
    out["throughput_rps"] = (statistics.median(rounds), len(rounds))
    for op, src in (("select", w), ("execute", w), ("open", opens)):
        lat = op_latency(src, op)
        out[op + "_p50_us"] = (stats.percentile(lat, 50.0), len(lat))
        out[op + "_p99_us"] = (stats.percentile(lat, 99.0), len(lat))
    pipes = untraced_pipelines(result)
    out["pipeline_s"] = (statistics.median(p["total_s"] for p in pipes),
                         len(pipes))
    out["selection_speedup"] = (
        statistics.median(p["selection_speedup"] for p in pipes), len(pipes))
    out["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    return out


# -- Per-layer metrics -------------------------------------------------------

def load_spans(path, with_parents):
    doc = json.loads(Path(path).read_text())
    spans = stats.chrome_spans(doc)
    return spans if with_parents else stats.infer_parents(spans)


def span_durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def pipeline_layers(result):
    pipes = untraced_pipelines(result)
    med = lambda key: statistics.median(p[key] for p in pipes)  # noqa: E731
    return {
        "core.sweep_s": med("sweep_s"),
        "core.analysis_s": med("analysis_s"),
        "ml.train_s": med("train_s"),
        "sparse.generate_s": med("generate_s"),
        "kernels.sweep_launches": med("launches"),
        "support.sweep_parallel_efficiency": statistics.median(
            p["sweep_cpu_s"] / (p["sweep_s"] * p["threads"]) for p in pipes),
        "support.sys_cpu_share": statistics.median(
            p["sys_s"] / max(1e-9, p["user_s"] + p["sys_s"]) for p in pipes),
    }


def probe_layers(result):
    return {name: statistics.median(v) for name, v in result["layers"].items()}


def service_layers(st):
    built, reused = st["plans_built"], st["plans_reused"]
    return {
        "serve.hit_ratio": st["cache_hits"] / max(1, st["requests"]),
        "serve.reanalyses": st["reanalyses"],
        "serve.evictions": st["evictions"],
        "serve.bytes_evicted": st["bytes_evicted"],
        "serve.plans_reused_ratio": reused / max(1, built + reused),
        "api.async_rejected": st["async_rejected"],
    }


def shard_stat_delta(result):
    keys = ("requests", "cache_hits", "plans_built", "plans_reused",
            "reanalyses", "evictions", "bytes_evicted", "async_rejected")
    out = dict.fromkeys(keys, 0)
    for shard in ("shard0", "shard1"):
        a = stats.stat_lines(result["stats_before"][shard])
        b = stats.stat_lines(result["stats_after"][shard])
        for k in keys:
            out[k] += int(b[k] - a[k])
    return out


def shard_histogram_p50(result, name):
    before = [stats.prom_buckets(result["metrics_before"][s], name)
              for s in ("shard0", "shard1")]
    after = [stats.prom_buckets(result["metrics_after"][s], name)
             for s in ("shard0", "shard1")]
    return stats.histogram_percentile(before, after, 50.0)


def wire_layers(result, report):
    """Per-layer metrics and the select latency breakdown of wire-hot."""
    m = {}
    a = result["window"]
    proc = result["proc"]
    reqs = max(1, a["requests"])
    cpu = lambda p: (p["user_s"] + p["sys_s"]) * 1e6 / reqs  # noqa: E731
    m["net.client_cpu_us_per_request"] = cpu(proc["client"])
    m["net.lb_cpu_us_per_request"] = cpu(proc["lb"])
    m["net.shard_cpu_us_per_request"] = cpu(proc["shard0"]) + \
        cpu(proc["shard1"])
    m["net.lb_ctx_switches_per_request"] = proc["lb"]["ctx_switches"] / reqs
    m["net.shard_ctx_switches_per_request"] = (
        proc["shard0"]["ctx_switches"] + proc["shard1"]["ctx_switches"]) / reqs
    m.update(service_layers(shard_stat_delta(result)))

    bench = load_spans(result["bench_trace"], with_parents=True)
    m["net.encode_us"] = median_or_zero(span_durations(bench, "net.encode"))
    m["net.decode_us"] = median_or_zero(span_durations(bench, "net.decode"))
    warm = result["warmup"]
    m["net.bytes_per_request"] = warm["wire_bytes"] / max(1, warm["requests"])
    m["net.open_p50_us"] = stats.percentile(op_latency(result["opens"],
                                                       "open"), 50.0)
    hop = result["hop"]["latency_us"]
    m["net.lb_hop_us"] = (statistics.median(hop["hop_lb"]) -
                          statistics.median(hop["hop_direct"]))
    m["net.server_request_p50_us"] = shard_histogram_p50(
        result, "seer_net_request_us") or 0.0
    spread = result["spread_window"]
    m["net.cross_cpu_select_p50_us"] = stats.percentile(
        op_latency(spread, "select"), 50.0)
    m["net.cross_cpu_throughput_rps"] = (spread["requests"] /
                                         spread["wall_s"])
    m["api.queue_wait_p50_us"] = shard_histogram_p50(
        result, "seer_queue_wait_us") or 0.0
    shard_spans = []
    for shard, path in result["shard_traces"].items():
        if Path(path).exists():
            spans = load_spans(path, with_parents=False)
            for s in spans:
                s["tid"] = (shard, s["tid"])
                s["id"] = (shard, s["id"])
                if s["parent"]:
                    s["parent"] = (shard, s["parent"])
            shard_spans += spans
    m["serve.cache_probe_p50_us"] = median_or_zero(
        span_durations(shard_spans, "cache.probe"))

    # The select breakdown: the client-observed median split into the
    # layers measured around it; what no layer accounts for is reported
    # as the unattributed remainder, so the parts add up to the total.
    traced = stats.percentile(op_latency(result["traced_window"], "select"),
                              50.0)
    untraced = stats.percentile(op_latency(a, "select"), 50.0)
    parts = {
        "client encode (net.encode)": m["net.encode_us"],
        "client decode (net.decode)": m["net.decode_us"],
        "balancer hop (net.lb_hop_us)": m["net.lb_hop_us"],
        "shard request (net.server_request_p50_us)":
            m["net.server_request_p50_us"],
    }
    m["trace.unattributed_us"] = traced - sum(parts.values())
    m["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    report["breakdown"] = {
        "operation": "select, p50 over the traced window",
        "total_us": traced,
        "parts_us": parts,
        "inside the shard request": {
            "queue wait (api.queue_wait_p50_us)": m["api.queue_wait_p50_us"],
        },
        "unattributed_us": m["trace.unattributed_us"],
        "untraced_select_p50_us": untraced,
        "tracing_overhead_pct": m["trace.overhead_pct"],
    }
    report["layer_self_times"] = {
        "benchmark": stats.layer_table(bench),
        "shards": stats.layer_table(shard_spans) if shard_spans else {},
    }
    return m


def inproc_layers(result, report):
    """Per-layer metrics of the in-process workloads."""
    m = service_layers(result["stats"])
    bench = load_spans(result["bench_trace"], with_parents=True)
    program = load_spans(result["program_trace"], with_parents=False)
    m["serve.cache_probe_p50_us"] = median_or_zero(
        span_durations(program, "cache.probe"))
    traced = stats.percentile(op_latency(result["traced_window"], "open"),
                              50.0)
    untraced = stats.percentile(op_latency(result["window"], "open"), 50.0)
    m["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    # Request breakdown in means, which add up exactly: the client-observed
    # request is its API calls plus seerbench's own time between them.
    requests = [s for s in bench if s["name"] == "client.request"]
    selfs = stats.self_times(bench)
    total = statistics.fmean(s["end"] - s["start"] for s in requests)
    parts = {name: statistics.fmean(span_durations(bench, name))
             for name in ("api.register", "api.select", "api.execute",
                          "api.release")}
    m["trace.unattributed_us"] = statistics.fmean(
        selfs[s["id"]] for s in requests)
    table = stats.layer_table(bench)
    report["breakdown"] = {
        "operation": "register + select + execute + release, mean",
        "total_us": total, "parts_us": parts,
        "unattributed_us": m["trace.unattributed_us"],
        "untraced_open_p50_us": untraced,
        "tracing_overhead_pct": m["trace.overhead_pct"],
    }
    report["layer_self_times"] = {
        "benchmark": table, "program": stats.layer_table(program)}
    return m


def per_layer(result, declared, report):
    m = {}
    m.update(pipeline_layers(result))
    m.update(probe_layers(result))
    m["core.charged_ms_per_request"] = result["charged_ms_per_request"]
    if result["workload"] == "wire-hot":
        m.update(wire_layers(result, report))
    else:
        m.update(inproc_layers(result, report))
    undeclared = sorted(set(m) - set(declared))
    if undeclared:
        raise SystemExit("run.py: per-layer metrics missing from "
                         "BENCHMARK.json: %s" % undeclared)
    missing = sorted(set(declared) - set(m))
    # Layers this workload does not exercise (the net layer of the
    # in-process workloads) read 0 and are listed as such.
    report["not_exercised"] = missing
    for name in missing:
        m[name] = 0.0
    return {name: (m[name], None) for name in declared}


# -- Running seerbench --------------------------------------------------------

def run(args):
    if not (ROOT / "src" / "core" / "Seer.h").exists():
        log("run.py: the Seer sources (src/, tools/) are not in this "
            "checkout; nothing to build")
        return 2
    units = declared_metrics()
    bdir = build()
    runs = ROOT / ".bench_runs"
    remove_stale_runs(runs)
    run_dir = runs / ("%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    run_dir.mkdir(parents=True)
    try:
        return measure(args, bdir, run_dir, units)
    finally:
        if run_dir.exists():
            shutil.rmtree(run_dir)


def remove_stale_runs(runs):
    """Deletes run directories left by a run.py that was killed outright:
    ones whose owner process is gone."""
    if not runs.exists():
        return
    for d in runs.iterdir():
        pid = d.name.rsplit("-", 1)[-1]
        if d.name.startswith("last-") or not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(d)
        except PermissionError:
            pass


def seerbench_timeout(args):
    return SEERBENCH_SETUP_ALLOWANCE_S + SEERBENCH_WINDOW_FACTOR * args.seconds


def _die_with_parent():
    """Runs in the forked seerbench before exec: SIGTERM it when this process
    dies, however it dies, so its own handler reaps the servers."""
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def measure(args, bdir, run_dir, units):
    e2e_units, layer_units = units
    out = run_dir / "result.json"
    cmd = [str(bdir / "seerbench"), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(run_dir), "--bin", str(bdir), "--out", str(out)]
    all0, steal0 = cpu_jiffies()
    child = subprocess.Popen(cmd, stdout=sys.stderr,
                             preexec_fn=_die_with_parent)
    try:
        code = child.wait(timeout=seerbench_timeout(args))
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    all1, steal1 = cpu_jiffies()
    if not out.exists():
        log("run.py: seerbench exited %d without a result" % code)
        return code or 1
    result = json.loads(out.read_text())
    counts = stats.outcome(result["attempted"], result["succeeded"],
                           result["failed"], result["wrong"])

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_block(
                  bdir, result, (steal1 - steal0) / max(1, all1 - all0)),
              "outcome": counts, "errors": result["errors"]}
    if args.trace:
        values = per_layer(result, layer_units, report)
        units = layer_units
    else:
        values = end_to_end(result)
        units = e2e_units
        if set(values) != set(units):
            raise SystemExit("run.py: computed metrics differ from "
                             "BENCHMARK.json: %s"
                             % sorted(set(values) ^ set(units)))
    report["pipelines"] = result["pipelines"]

    for key in ("host", "outcome"):
        print("%s: %s" % (key, json.dumps(report[key])))
    for name in units:
        value, n = values[name]
        print("metric %-40s %16.6f %-8s%s" % (
            name, value, units[name], "" if n is None else " (n=%d)" % n))
    if not args.trace:
        for op, src in (("select", result["window"]),
                        ("execute", result["window"]),
                        ("open", result.get("opens", result["window"]))):
            s = stats.summarize(op_latency(src, op))
            if s["n"] and not s["p99_supported"]:
                print("note: %s_p99_us rests on %d samples, fewer than %d "
                      "beyond it; highest supported tail is p%s" % (
                          op, s["n"], stats.MIN_BEYOND, s.get("tail_p")))
    else:
        print("breakdown: %s" % json.dumps(report["breakdown"]))
        print("not exercised (reported as 0): %s"
              % ", ".join(report["not_exercised"]))
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))

    if args.trace:
        keep = run_dir.parent / ("last-%s-trace%d" % (args.workload,
                                                      args.trace))
        if keep.exists():
            shutil.rmtree(keep)
        run_dir.rename(keep)
        print("spans and exports kept in %s" % keep.relative_to(ROOT))

    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0 if counts["correct"] and code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_signal)
    start = time.monotonic()
    try:
        code = run(args)
    except Terminated as t:
        log("run.py: stopped by signal %s" % t.args[0])
        code = 128 + t.args[0]
    except subprocess.TimeoutExpired:
        log("run.py: seerbench exceeded %d s" % seerbench_timeout(args))
        code = 1
    log("run.py: done in %.1f s" % (time.monotonic() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())

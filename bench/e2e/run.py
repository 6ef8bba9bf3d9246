#!/usr/bin/env python3
"""End-to-end host-time benchmark of the HIX simulator.

Run from the repository root:

  python3 bench/e2e/run.py [--seed S] [--seconds T] [--out FILE]
      Build bench_e2e (Release, into build-bench/), run its attribution
      self-test, run the four workloads round-robin in two rounds of
      fresh processes, then one traced process per workload. Prints every
      end-to-end metric with its unit, the per-layer split, and writes a
      results file with a host header. Exits non-zero if any repetition
      failed or disagreed with the pinned outputs.

  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
      One workload in one process. The last line of standard output is
      one JSON object: {"correct", "attempted", "failed", "metrics"};
      the metrics are the end-to-end ones with --trace 0 and the
      per-layer ones with --trace 1.

  python3 bench/e2e/run.py compare A.json B.json
      Compare two results files, one row per (workload, end-to-end
      metric): ok, regressed, or unresolved when the run-to-run spread
      is wider than the metric's bound. Refuses to compare host times
      recorded on different hosts.

See bench/e2e/README.md for the metrics, workloads and attribution rules.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "bench_e2e")
REFERENCE = os.path.join(HERE, "reference.json")

# BENCHMARK.json at the repository root names the workloads and
# metrics, with each end-to-end metric's unit, direction and bound.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVICE = {"svc-hix", "svc-gdev"}
PINNED = ["ticks", "p50", "p95", "p99", "digest"]
# name, unit, better, bound (share of the base median).
E2E = [(m["name"], m["unit"], m["better"], m["bound"])
       for m in SPEC["end_to_end"]]
LAYERS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# error_rate is 0 on a healthy run, so it is not one of BENCHMARK.json's
# metrics (those are never 0); the suite reports it and compare treats
# any increase as a regression.
ERROR_RATE = ("error_rate", "1", "lower", 0.0)
# Gdev session startup is a few ms in total, where jitter exceeds any
# share, so compare also allows setup_s to grow by this many seconds.
SETUP_FLOOR_S = 0.005
# Layers that split recording time; the suite prints their shares.
TIME_LAYERS = ["crypto.seal_ms", "crypto.open_ms", "gpu.ocb_ms",
               "gpu.kernel_ms", "hix.ipc_ms", "mem.stage_ms",
               "pcie.xfer_ms", "sgx.init_ms", "os.boot_ms",
               "workloads.app_ms"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ----- build and run ---------------------------------------------------

def build():
    """Configure (once) and build bench_e2e; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def selftest():
    proc = subprocess.run([BINARY, "--selftest"], stdout=subprocess.PIPE,
                          text=True, timeout=60)
    log(proc.stdout.strip())
    return proc.returncode == 0


def run_process(workload, seed, seconds, trace):
    """One bench_e2e process; returns (process info, reps, end info)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    info, reps, end = {}, [], {}
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if obj["type"] == "process":
            info = obj
        elif obj["type"] == "rep":
            reps.append(obj)
        elif obj["type"] == "end":
            end = obj
    if not reps or not end:
        raise RuntimeError(f"{' '.join(cmd)} printed no result")
    return info, reps, end


# ----- correctness -----------------------------------------------------

def load_pins():
    with open(REFERENCE) as f:
        return json.load(f)


def check(workload, reps, pins):
    """Mark each rep ok/failed: status, pins at the pinned seed (and
    for the seedless batch workloads), rep-1 agreement otherwise."""
    pin = pins["workloads"][workload]
    first = {}
    for rep in reps:
        why = None
        if not rep["ok"]:
            why = rep["error"] or "status not OK"
        elif rep["seed"] == pins["seed"] or workload not in SERVICE:
            bad = [k for k in PINNED if k in pin and rep[k] != pin[k]]
            if bad:
                why = "differs from reference.json in " + ", ".join(bad)
        else:
            if not first:
                first = rep
            bad = [k for k in PINNED if rep[k] != first[k]]
            if bad:
                why = "differs from rep 1 in " + ", ".join(bad)
        rep["failed"] = why is not None
        if why:
            log(f"  !! {workload} rep {rep['rep']} (seed {rep['seed']}):"
                f" {why}")
    return sum(r["failed"] for r in reps)


# ----- statistics ------------------------------------------------------

def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def e2e_values(reps, rss):
    timed = [r for r in reps if not r["warmup"] and not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in timed],
        "ops_per_s": [r["ops"] / r["wall_s"] for r in timed],
        "cpu_s": [r["cpu_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": rss,
    }


def layer_values(reps):
    traced = [r for r in reps if r["traced"] and not r["warmup"]]
    untraced = [r for r in reps if not r["traced"] and not r["warmup"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _ in LAYERS if name != "trace.overhead"}
    out["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced) /
        statistics.median(r["wall_s"] for r in untraced) - 1)
    return out


# ----- driver mode -----------------------------------------------------

def one_workload(args):
    pins = load_pins()
    _, reps, end = run_process(args.workload, args.seed, args.seconds,
                               args.trace)
    failed = check(args.workload, reps, pins)
    if args.trace:
        layers = layer_values(reps)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYERS}
    else:
        values = e2e_values(reps, [end["peak_rss_mb"]])
        metrics = {name: {"value": statistics.median(values[name]),
                          "unit": unit}
                   for name, unit, *_ in E2E}
    for name, m in metrics.items():
        log(f"  {args.workload:14s} {name:26s} {m['value']:.6g} "
            f"{m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ----- full suite ------------------------------------------------------

def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown", None
    if sha.returncode != 0:
        return "unknown", None
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def suite(args):
    pins = load_pins()
    rounds = 2
    per_round = max(1, args.seconds // rounds)
    reps = {w: [] for w in WORKLOADS}
    rss = {w: [] for w in WORKLOADS}
    info = {}
    # Round-robin over workloads, each round a fresh process per
    # workload, so host drift spreads across all of them.
    for rnd in range(rounds):
        for w in WORKLOADS:
            log(f"round {rnd + 1}/{rounds}: {w} ({per_round} s)")
            info, got, end = run_process(w, args.seed, per_round, 0)
            reps[w] += got
            rss[w].append(end["peak_rss_mb"])
    # One traced process per workload: traced and untraced reps
    # alternate, giving the per-layer split and the tracing overhead.
    traced = {}
    for w in WORKLOADS:
        log(f"traced: {w} ({per_round} s)")
        _, got, _ = run_process(w, args.seed, per_round, 1)
        traced[w] = got

    sha, dirty = git_state()
    header = {
        "hardware_threads": info.get("hardware_threads"),
        "cpu_model": cpu_model(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": args.seed,
        "seconds": args.seconds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    results = {"header": header, "workloads": {}}
    total_failed = 0
    for w in WORKLOADS:
        failed = check(w, reps[w] + traced[w], pins)
        attempted = len(reps[w]) + len(traced[w])
        total_failed += failed
        e2e = {name: summary(v)
               for name, v in e2e_values(reps[w], rss[w]).items()}
        e2e["error_rate"] = summary([failed / attempted])
        results["workloads"][w] = {
            "attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layer_values(traced[w]),
        }

    print_suite(results)
    out = args.out or os.path.join(
        BUILD, "results", time.strftime("e2e-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}")
    return 0 if total_failed == 0 else 1


def print_suite(results):
    h = results["header"]
    print(f"host: {h['hardware_threads']} threads, {h['cpu_model']}, "
          f"{h['compiler']}, {h['build_type']}, git {h['git_sha']}"
          f"{' (dirty)' if h['git_dirty'] else ''}, seed {h['seed']}")
    units = {name: unit for name, unit, *_ in E2E + [ERROR_RATE]}
    for w, r in results["workloads"].items():
        print(f"\n{w}: {r['attempted']} reps attempted, "
              f"{r['failed']} failed")
        for name, s in r["e2e"].items():
            print(f"  {name:14s} {s['median']:12.6g} {units[name]:5s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
        layers = r["layers"]
        recorded = sum(layers[n] for n in TIME_LAYERS) or 1.0
        print("  per layer (traced rep):")
        for name, unit in LAYERS:
            share = (f"  {100 * layers[name] / recorded:5.1f}%"
                     if name in TIME_LAYERS else "")
            print(f"    {name:26s} {layers[name]:14.6g} {unit}{share}")


# ----- compare ---------------------------------------------------------

def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("hardware_threads", "build_type", "cpu_model"):
        if a["header"].get(key) != b["header"].get(key):
            print(f"refusing to compare host times: {key} differs "
                  f"({a['header'].get(key)!r} vs "
                  f"{b['header'].get(key)!r})")
            return 2
    print(f"base {path_a} (git {a['header']['git_sha']})")
    print(f"new  {path_b} (git {b['header']['git_sha']})")
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread':>13s} {'bound':>6s}  verdict")
    bad = 0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w:14s} missing from {path_b}")
            bad += 1
            continue
        for name, _unit, better, bound in E2E + [ERROR_RATE]:
            sa = a["workloads"][w]["e2e"][name]
            sb = b["workloads"][w]["e2e"][name]
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            verdict = judge(sa, sb, better, bound, floor)
            bad += verdict != "ok"
            base, new = sa["median"], sb["median"]
            ratio = f"{new / base:9.4f}" if base else f"{'-':>9s}"
            spread = f"{rel_spread(sa):5.1%}/{rel_spread(sb):5.1%}"
            print(f"{w:14s} {name:12s} {base:12.6g} {new:12.6g} {ratio} "
                  f"{spread:>13s} {bound:6.0%}  {verdict}")
    return 0 if bad == 0 else 1


def rel_spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def judge(base, new, better, bound, floor):
    """choosing-metrics 6.5: regressed when the new median is worse than
    the base by more than the bound; unresolved when either side's
    q1-q3 spread is wider than the bound, unless every new value beats
    every base value."""
    sign = 1 if better == "lower" else -1
    allowed = max(bound * abs(base["median"]), floor)
    worse = sign * (new["median"] - base["median"])
    if worse > allowed:
        return "regressed"
    if bound and max(rel_spread(base), rel_spread(new)) > bound:
        if better == "lower":
            all_better = max(new["values"]) < min(base["values"])
        else:
            all_better = min(new["values"]) > max(base["values"])
        return "ok" if all_better else "unresolved"
    return "ok"


# ----- main ------------------------------------------------------------

def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(sys.argv[2], sys.argv[3])

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=load_pins()["seed"],
                   help="svc arrival seed (batch workloads take none)")
    p.add_argument("--seconds", type=int, default=20,
                   help="measured seconds per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="results file (full suite only)")
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in 1..3600")

    if not build():
        log("build failed")
        return 1
    if not selftest():
        log("attribution self-test failed")
        return 1
    if args.workload:
        return one_workload(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())

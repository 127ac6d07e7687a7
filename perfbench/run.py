"""perfbase benchmark: closed-loop workloads, end-to-end or traced.

Run from the repository root:

  python3 perfbench/run.py --workload mtr-sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all      # all four workloads in turn

One client runs one item at a time.  A run is a series of passes over the
workload's items, each pass in a fresh Python process (so in-process caches
never carry over, as for a user of the sweeps or the CLI), until --seconds
have passed and at least MIN_PASSES passes are done.  Every output is
checked after the timed phase.  Reported times are scaled to a reference
CPU speed (see speed.py); the raw times are in the details.

--trace 0 reports the end-to-end metrics.  --trace 1 runs pairs of passes
over the items of pass 0, one untraced and one traced, and reports the per-layer
metrics from the traced passes, the tracing overhead from the pairs, and
the gf operation rates from a separate microbenchmark process.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Details (provenance, sample counts, the tail percentile, failures) go to the
line before it and to .perfbench_out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans as spanlib
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("mtr-sweep", "construct-sweep", "cli-certify", "oracle")
MIN_PASSES = 3
SETUP_SAMPLES = 15
TAIL_BEYOND = 10  # samples beyond the tail percentile
SPAWN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def tail(passes, times):
    """(percentile, value): the item time with exactly TAIL_BEYOND samples above it.

    It is taken over the first MIN_PASSES passes only, so every run
    compares the same order statistic of the same number of samples, and
    the percentile, 100 * (1 - TAIL_BEYOND / n), stays the same across
    commits.
    """
    lat = sorted(x for p in passes[:MIN_PASSES] for x in p[times])
    n = len(lat)
    return 100 * (1 - TAIL_BEYOND / n), lat[max(0, n - TAIL_BEYOND - 1)]


def spawn(root, args, deadline):
    """Run one worker process to completion and return its JSON result."""
    before = speed.sample()
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, root, *args]
    if args[0] != "gf-micro":
        cmd.append(repr(spawned))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr.decode()[-2000:])
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if "setup_s" in result:
        result["setup_scaled"] = speed.scale(result["setup_s"], before,
                                             *result["setup_samples"])
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- end-to-end run -------------------------------------------------------------------


def end_to_end(root, workload, seed, seconds, deadline):
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        if passes and time.monotonic() + 1.5 * sum(passes[-1]["latencies"]) > deadline:
            break
        passes.append(spawn(root, [workload, str(seed), str(len(passes)), "run"], deadline))
    setups = passes + [spawn(root, [workload, str(seed), "0", "setup"], deadline)
                       for _ in range(SETUP_SAMPLES - len(passes))]
    n = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    def figures(times, setup_key):
        return {
            "items_per_s": statistics.median(len(p[times]) / sum(p[times]) for p in passes),
            "latency_p50_ms": statistics.median(x for p in passes for x in p[times]) * 1000,
            "latency_tail_ms": tail(passes, times)[1] * 1000,
            "setup_s": statistics.median(p[setup_key] for p in setups),
        }

    units = {"items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s"}
    metrics = {k: metric(v, units[k]) for k, v in figures("scaled", "setup_scaled").items()}
    metrics["peak_rss_mb"] = metric(max(p["rss_kb"] for p in passes) / 1024, "MB")
    detail = {
        "passes": len(passes),
        "samples": n,
        "tail_percentile": tail(passes, "scaled")[0],
        "tail_samples": sum(len(p["latencies"]) for p in passes[:MIN_PASSES]),
        "failed_frac": len(failures) / n,
        "setup_samples": len(setups),
        "raw": figures("latencies", "setup_s"),
        "speed_sample_median_s": statistics.median(x for p in passes for x in p["samples"]),
        "failures": failures[:20],
    }
    return n, len(failures), metrics, detail, None


# --- traced run -----------------------------------------------------------------------


def item_scaled_spans(result):
    """The pass's spans with durations scaled by their item's speed factor.

    Root spans (parent -1) are the items, in order; every span is scaled by
    the factor (scaled time over raw time) of the item it ran in.
    """
    spans = [tuple(x) for x in result["spans"]]
    parent = {s[0]: s[1] for s in spans}
    roots = [s[0] for s in spans if s[1] == -1]
    factor = {r: scaled / raw if raw else 1.0
              for r, scaled, raw in zip(roots, result["scaled"], result["latencies"])}
    root = {}

    def root_of(sid):
        path = []
        while sid not in root and parent[sid] != -1:
            path.append(sid)
            sid = parent[sid]
        top = root.get(sid, sid)
        for p in path + [sid]:
            root[p] = top
        return top

    return [(sid, par, name, t0, t0 + (t1 - t0) * factor[root_of(sid)], count)
            for sid, par, name, t0, t1, count in spans], factor


def pass_figures(result):
    """Per-layer figures of one traced pass, at the reference speed."""
    spans, factor = item_scaled_spans(result)
    s = spanlib.summarize(spans)
    names = s["names"]
    fig = {f"{name}.self_s": s["layers"].get(name, 0.0) for name in spanlib.LAYERS}
    for group, (calls, self_s, incl_s) in s["groups"].items():
        fig[f"{group}.calls"] = calls
        fig[f"{group}.self_s"] = self_s
        fig[f"{group}.incl_s"] = incl_s
    fig["codewords"] = names.get("rmcode.min_rank_distance", [0, 0, 0, 0])[3]
    fig["members"], fig["members_s"] = s["members"]
    fig["constructs"] = names.get("cli.cmd_construct", [0])[0]
    fig["wall_s"] = sum(result["scaled"])
    fig["spans"] = len(spans)
    children = [(c, f) for c, f in zip(result.get("children", []), factor.values()) if c]
    lists = {
        "interp_start_s": [c["interp_start_s"] * f for c, f in children],
        "import_s": [c["import_s"] * f for c, f in children],
        "reverify_s": [x[4] - x[3] for x in spans if x[2] == "cli.reverify"],
    }
    return fig, lists


def traced(root, workload, seed, seconds, deadline):
    pairs = []
    start = time.monotonic()
    while not pairs or time.monotonic() - start < seconds:
        if pairs and time.monotonic() + 3 * sum(pairs[-1][1]["latencies"]) > deadline:
            break
        # every pair runs pass 0, so per-pass counts repeat exactly for a seed
        plain = spawn(root, [workload, str(seed), "0", "run"], deadline)
        pairs.append((plain, spawn(root, [workload, str(seed), "0", "trace"], deadline)))
    rates = spawn(root, ["gf-micro", str(seed)], deadline)

    per_pass = [pass_figures(t) for _, t in pairs]
    avg = {key: statistics.fmean(fig[key] for fig, _ in per_pass) for key in per_pass[0][0]}
    lists = {key: [x for _, ls in per_pass for x in ls[key]] for key in per_pass[0][1]}

    def ratio(a, b):
        return a / b if b else 0.0

    def median_ms(values):
        return statistics.median(values) * 1000 if values else 0.0

    m = {f"{name}.self_s": metric(avg[f"{name}.self_s"], "s") for name in spanlib.LAYERS}
    m["gf.field_build.self_s"] = metric(avg["gf.field_build.self_s"], "s")
    m["gf.field_build.calls"] = metric(avg["gf.field_build.calls"], "count")
    for name, rate in rates.items():
        m[name] = metric(rate, "1/s")
    for g in ("exactla.rref", "exactla.space_build", "tensor3.verify_base",
              "tensor3.oracle"):
        m[f"{g}.self_s"] = metric(avg[f"{g}.self_s"], "s")
        m[f"{g}.calls"] = metric(avg[f"{g}.calls"], "count")
    m["exactla.membership.self_s"] = metric(avg["exactla.membership.self_s"], "s")
    m["rmcode.distance.self_s"] = metric(avg["rmcode.distance.self_s"], "s")
    m["rmcode.codewords_scanned"] = metric(avg["codewords"], "count")
    m["rmcode.codewords_per_s"] = metric(
        ratio(avg["codewords"], avg["rmcode.distance.self_s"]), "1/s")
    m["rmcode.pipeline.self_s"] = metric(avg["rmcode.pipeline.self_s"], "s")
    m["construct.build.self_s"] = metric(avg["construct.build.self_s"], "s")
    m["construct.members_per_s"] = metric(ratio(avg["members"], avg["members_s"]), "1/s")
    m["cli.interp_start_ms"] = metric(median_ms(lists["interp_start_s"]), "ms")
    m["cli.import_ms"] = metric(median_ms(lists["import_s"]), "ms")
    m["cli.reverify_ms"] = metric(median_ms(lists["reverify_s"]), "ms")
    m["cli.serialize_ms"] = metric(
        ratio(avg["cli.serialize.incl_s"], avg["constructs"]) * 1000, "ms")
    attributed = sum(avg[f"{name}.self_s"] for name in spanlib.LAYERS)
    untraced = sum(sum(p["scaled"]) for p, _ in pairs)
    m["trace.wall_s"] = metric(avg["wall_s"], "s")
    m["trace.overhead_frac"] = metric(
        sum(sum(t["scaled"]) for _, t in pairs) / untraced - 1, "ratio")
    m["trace.unattributed_frac"] = metric((avg["wall_s"] - attributed) / avg["wall_s"],
                                          "ratio")
    m["trace.spans"] = metric(avg["spans"], "count")

    counts = [{k: v for k, v in fig.items() if k.endswith(".calls")} for fig, _ in per_pass]
    failures = [f for p in pairs for r in p for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for p in pairs for r in p)
    detail = {
        "pairs": len(pairs),
        "samples": attempted,
        "failed_frac": len(failures) / attempted,
        "counts_repeat": all(c == counts[0] for c in counts),
        "failures": failures[:20],
    }
    return attempted, len(failures), m, detail, [t["spans"] for _, t in pairs]


# --- provenance and output ------------------------------------------------------------


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(gitdir, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root, args):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_checkout(root):
    for rel in ("src/perfbase/__init__.py", "src/perfbase/cli.py", "fixtures"):
        if not os.path.exists(os.path.join(root, rel)):
            raise BenchError(f"{rel} not found under {root}: run from the repository root")


def warm_up(root, deadline):
    """Compile the package's bytecode once, so no pass pays for it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", "import perfbase.cli"], env=env,
                          stderr=subprocess.PIPE,
                          timeout=max(5.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError("import perfbase.cli failed:\n" + proc.stderr.decode()[-2000:])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    deadline = time.monotonic() + SPAWN_TIMEOUT_S
    try:
        check_checkout(root)
        prov = provenance(root, args)
        cpu = speed.pin_to_one_cpu()
        warm_up(root, deadline)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.workload == "all":
            deadline = time.monotonic() + SPAWN_TIMEOUT_S * len(names)
        outdir = os.path.join(root, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        prov.update(pinned_cpu=cpu, speed_reference_s=speed.REFERENCE_S)
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            run = traced if args.trace else end_to_end
            attempted, failed, metrics, detail, span_log = run(
                root, name, args.seed, args.seconds, deadline)
            detail = {"workload": name, "provenance": prov, **detail}
            stem = os.path.join(outdir, f"{name}-seed{args.seed}-trace{args.trace}")
            with open(stem + ".json", "w") as fh:
                json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
            if span_log is not None:
                with open(stem + "-spans.json", "w") as fh:
                    json.dump(span_log, fh)
            for key, val in metrics.items():
                print(f"{name:16s} {key:32s} {val['value']:16.6f} {val['unit']}")
            print(json.dumps(detail))
            total["correct"] = total["correct"] and failed == 0
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

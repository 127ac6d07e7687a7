"""One pass of one workload in a fresh process; prints one JSON result line.

Usage: python worker.py ROOT WORKLOAD SEED PASS MODE SPAWNED_AT
       python worker.py ROOT gf-micro SEED

MODE is "run" (time the pass), "trace" (time it with spans installed) or
"setup" (stop after set-up, to sample set-up time alone).

SPAWNED_AT is the parent's time.monotonic() reading just before it started
this process; the clock is system-wide, so set-up time runs from there to the
end of input generation, less the time speed samples took (see speed.py).
Set-up covers interpreter start, `import perfbase` and input generation.
Outputs are checked after the timed phase.
"""

import json
import os
import resource
import shutil
import sys
import time

import speed


def run_pass(root, workload, seed, pass_index, mode, spawned_at):
    workdir = os.path.join(root, ".perfbench_out", "tmp", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with speed.Meter(on_timer=True) as setup_meter:
            if workload == "cli-certify":
                import clicert
                wl = clicert.CliCertify(seed, root, workdir, mode == "trace")
                in_process = False
            else:
                import workloads
                wl = workloads.IN_PROCESS[workload](seed, pass_index)
                in_process = True
            setup_s = time.monotonic() - spawned_at - setup_meter.paused
        setup = {"setup_s": setup_s, "setup_samples": [k for _, k in setup_meter.samples]}
        if mode == "setup":
            return setup
        meter = speed.Meter(on_timer=in_process and mode == "run")
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            if in_process:
                spans.install(tracer)
        root_name = "bench.item" if in_process else "cli.process"

        outputs, errors, timings, roots = [], {}, [], []
        with meter:
            for i, item in enumerate(wl.items):
                meter.between_items()
                token = tracer.open(root_name) if tracer else None
                paused = meter.paused
                t0 = time.perf_counter()
                try:
                    out = wl.run(item)
                except Exception as exc:  # an item that raises is a failed item
                    out = None
                    errors[i] = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                timings.append((t0, t1, t1 - t0 - (meter.paused - paused)))
                if tracer:
                    tracer.close(token)
                    roots.append(token[0])
                outputs.append(out)

        spans_of_items = list(tracer.spans) if tracer else None  # before checks call anything
        scaled = [meter.scaled(*t) for t in timings]
        records = [] if in_process else wl.child_records()
        if mode == "run" and records:
            # a CLI process sampled its own speed; leave out the time that took
            for i, ((t0, t1, raw), rec) in enumerate(zip(timings, records)):
                if rec:
                    timings[i] = (t0, t1, raw - rec["paused"])
                    scaled[i] = meter.scaled(*timings[i], during=rec["samples"])

        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result = {
            **setup,
            "samples": [k for _, k in meter.samples],
            "latencies": [t for _, _, t in timings],
            "scaled": scaled,
            "rss_kb": resource.getrusage(who).ru_maxrss,
            "failures": [],
        }
        for i, (item, out) in enumerate(zip(wl.items, outputs)):
            problems = [errors[i]] if i in errors else wl.check(item, out)
            if problems:
                result["failures"].append(f"{wl.label(item)}: {problems[0]}")
        if tracer:
            result["spans"] = spans_of_items
            if not in_process:
                result["children"] = graft_children(spans_of_items, roots, records)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def graft_children(spans, roots, children):
    """Append each CLI process's spans under its item's root span.

    Child span ids are offset per process so they stay unique; the child's
    top-level spans get the item's root span as parent.  Returns the
    per-process start-up figures, in item order (None where a process
    wrote nothing).
    """
    info = []
    for i, (root_id, child) in enumerate(zip(roots, children)):
        if not child:
            info.append(None)
            continue
        offset = (i + 1) * 10**9
        for sid, parent, name, t0, t1, count in child["spans"]:
            spans.append((sid + offset, root_id if parent < 0 else parent + offset,
                          name, t0, t1, count))
        info.append({"interp_start_s": child["interp_start_s"],
                     "import_s": child["import_s"]})
    return info


def main(argv):
    root = argv[0]
    sys.path.insert(0, os.path.join(root, "src"))
    if argv[1] == "gf-micro":
        import workloads
        result = workloads.gf_rates(int(argv[2]))
    else:
        workload, seed, pass_index, mode, spawned_at = argv[1:6]
        result = run_pass(root, workload, int(seed), int(pass_index), mode,
                          float(spawned_at))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

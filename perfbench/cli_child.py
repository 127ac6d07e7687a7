"""Stand-in for `python -m perfbase` that records what the cli-certify workload needs.

Usage: python cli_child.py MODE OUTFILE <perfbase CLI arguments>

MODE "run" runs the CLI as `python -m perfbase` would, with the CPU-speed
timer of speed.py going, and writes the speed samples and the time they took
to OUTFILE.  MODE "trace" imports perfbase.cli, installs spans, runs the
CLI's main, and writes the spans, the import time and the clock reading at
this script's first statement to OUTFILE.  Either way the process exits with
the CLI's exit code.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def run(args):
    import speed
    meter = speed.Meter(on_timer=True)
    sys.argv = ["perfbase", *args]
    try:
        with meter:
            runpy.run_module("perfbase", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    return code, {"paused": meter.paused, "samples": [k for _, k in meter.samples]}


def trace(args):
    t0 = time.monotonic()
    import perfbase.cli
    import_s = time.monotonic() - t0

    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    code = perfbase.cli.main(args)
    return code, {"started": STARTED, "import_s": import_s, "spans": tracer.spans}


def main():
    mode, outfile, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    code, record = (run if mode == "run" else trace)(args)
    with open(outfile, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

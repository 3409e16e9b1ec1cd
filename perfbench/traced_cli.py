"""Runs one `vbsenergy` command line with instrumentation, in its own process.

    python3 perfbench/traced_cli.py trace OUT_JSON OP_ID -- ARGS...
    python3 perfbench/traced_cli.py tracemalloc OUT_JSON OP_ID -- ARGS...

The traced counterpart of `python -m vbsenergy.cli ARGS...` for the
cli-cold workload. `trace` installs the span tracer and writes its
spans and counts to OUT_JSON; `tracemalloc` writes the peak of Python
allocations during the command. Exit status, stdout and stderr are the
command's own, tracebacks included.
"""
import json
import sys
import tracemalloc

import tracer as tracerlib


def main() -> None:
    mode, out_path, op_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: traced_cli.py trace|tracemalloc OUT_JSON OP_ID -- ARGS...")
    argv = sys.argv[5:]
    import vbsenergy.cli  # noqa: F401  (imports the package, as -m does)
    cli = sys.modules["vbsenergy.cli"]

    if mode == "trace":
        tracer = tracerlib.Tracer()
        tracer.op = op_id
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            with open(out_path, "w") as fh:
                json.dump(tracer.export(), fh)
    elif mode == "tracemalloc":
        tracemalloc.start()
        try:
            code = cli.main(argv)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            with open(out_path, "w") as fh:
                json.dump({"peak_bytes": peak}, fh)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.exit(code)


if __name__ == "__main__":
    main()

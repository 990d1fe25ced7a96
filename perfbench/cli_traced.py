"""Run one mdsconv CLI verb under the benchmark's tracing.

Usage: python3 cli_traced.py LAYERS_OUT VERB [ARGS...]

mdsconv must be importable (PYTHONPATH).  The exit code is the verb's.
LAYERS_OUT receives the import time of `mdsconv.cli` and the per-function
span summary, so the traced plan-ladder run can see layers that only run
inside a CLI process (symbol-file reading and writing).
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    from mdsconv import cli

    import_ns = time.perf_counter_ns() - t0
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, "layers": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``strconvex`` CLI command in this process with spans recorded.

Usage (from the repository root): python3 perfbench/cli_child.py ARGS...

Runs ``strconvex.cli.main(ARGS)`` with the wrappers of spans.py installed, so
the spans see the subcommands, and exits with the command's exit code.  The
span aggregate goes to stderr as one line starting with "PERFBENCH_SPANS ".
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import strconvex.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from spans import Tracer, aggregate  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = strconvex.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        agg = aggregate(tracer.spans)
        agg["cli.import"] = {"self_s": IMPORT_S, "calls": 1, "counts": {}}
        print("PERFBENCH_SPANS " + json.dumps({"aggregate": agg, "absent": tracer.absent}),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh Python process, as a CLI user runs it.

    python3 perfbench/op.py --spawned T --result FILE [--trace DIR] [--probe] \
        -- CLI-ARGS...

T is the parent's time.monotonic() taken just before it started this
process.  CLOCK_MONOTONIC is shared by every process on Linux, so setup_s
covers interpreter start-up and the import of dnlslab.cli.  A probe stops
there; an operation then times ``dnlslab.cli.main(CLI-ARGS)`` and records
the peak resident memory of this process and of its largest reaped child
(a sweep's pool worker).  The measurements go to FILE as JSON; the CLI's own
output and exit code pass through unchanged.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import ROOT_SPAN, Tracer
        tracer = Tracer(args.trace)
        tracer.install_transforms()
    import dnlslab.cli as cli

    result = {"setup_s": time.monotonic() - args.spawned, "module": cli.__file__}
    code = 0
    if not args.probe:
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        if tracer is not None:
            tracer.install_layers()
            result["absent"] = tracer.absent
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.call(ROOT_SPAN, cli.main, cli_args)
        result["wall_s"] = time.perf_counter() - start
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

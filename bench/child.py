"""One hopfgalois CLI invocation, with its set-up time and peak RSS stamped.

    python3 bench/child.py --stamp PATH [--setup-only] [--trace PATH] -- ARGS...

Runs ``hopfgalois.cli.main(ARGS)`` from the ``src/`` tree next to this
directory, exactly as ``python -m hopfgalois.cli ARGS`` would.  The only
addition is a wrapper on ``cli.build_from_config`` that records the
CLOCK_MONOTONIC time at which it first returns; the parent subtracts its
own spawn time to get the set-up time.  With ``--setup-only`` the process
exits 0 right there.  When the invocation ends, the stamp file gets that
time and the process's own peak RSS (VmHWM).  ``ru_maxrss`` from
``wait4`` is no substitute: Linux carries the parent's peak RSS across
fork and exec into it, so it never reads below the parent's size.

With ``--trace`` every layer is wrapped by ``spans.Tracer`` and the trace
is written as JSON when the invocation ends.  Uncaught exceptions
propagate, so a crash still prints a traceback and exits 1, as the CLI
does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    return args


def main(argv):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import hopfgalois
    from hopfgalois import cli

    if Path(hopfgalois.__file__).resolve().parent.parent != SRC:
        raise SystemExit("hopfgalois was imported from %s, not from %s"
                         % (hopfgalois.__file__, SRC))
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    build = cli.build_from_config
    stamp = {}

    def build_from_config(*a, **kw):
        result = build(*a, **kw)
        if "setup_done" not in stamp:
            stamp["setup_done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            if args.setup_only:
                raise SystemExit(0)
        return result

    cli.build_from_config = build_from_config
    try:
        return cli.main(args.cli_args)
    finally:
        stamp["peak_rss_kb"] = peak_rss_kb()
        with open(args.stamp, "w") as fh:
            json.dump(stamp, fh)
        if tracer is not None:
            tracer.uninstall()
            with open(args.trace, "w") as fh:
                json.dump(tracer.dump(), fh)


def peak_rss_kb():
    """This process's peak resident set size since exec, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

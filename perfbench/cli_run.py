"""The ``domlab`` command line, reporting its own peak RSS.

    python3 perfbench/cli_run.py OUT_JSON [--trace] ARGS...

Runs ``domlab.cli.main(ARGS)`` in this process and writes ``rss_kb`` (see
``peak_rss_kb``) and, with ``--trace``, the per-layer totals from spans to
OUT_JSON. worker.py runs every verify-corpus operation through it.
"""

from __future__ import annotations

import json
import re
import sys


def peak_rss_kb() -> int:
    """This process's own peak RSS in KiB.

    ``VmHWM`` counts only the pages of this program image. ``ru_maxrss``
    (and ``os.wait4`` in the parent) also counts the parent's pages from
    before ``exec``, so it would report the benchmark's own memory. Linux only.
    """
    with open("/proc/self/status") as fh:
        return int(re.search(r"^VmHWM:\s+(\d+)", fh.read(), re.M).group(1))


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = None
    if args[:1] == ["--trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        args = args[1:]
    from domlab import cli

    try:
        return cli.main(args)
    finally:
        result = {"rss_kb": peak_rss_kb()}
        if tracer:
            result["layers"] = tracer.layers()
        with open(out, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())

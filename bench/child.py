"""One benchmark operation: the ``homwave`` CLI in a fresh process.

    python3 bench/child.py RESULT.json [--trace] -- <homwave CLI arguments>

Calls ``homwave.cli.main`` (the ``homwave`` console entry point) once and
writes RESULT.json with the exit code, the monotonic clock at CLI entry and
after the manifest is written, the process's peak resident memory and, with
``--trace``, the span dump of ``tracer``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import homwave
import homwave.cli


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    result_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    entry = time.monotonic()
    code = homwave.cli.main(cli_args)
    leave = time.monotonic()
    doc = {"code": code, "entry": entry, "exit": leave,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "homwave_file": homwave.__file__}
    if tracer is not None:
        doc["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

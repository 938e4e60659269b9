"""One benchmark invocation: a fresh process that runs ``fsoqkd.cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the
checkout root, the generated INI config, the subcommands with their output
CSVs, whether to trace, and where to write the result.  Timestamps use the
system-wide monotonic clock so the parent can subtract its spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import fsoqkd.cli as cli

    cli.load_config(spec["config"])
    result = {"t_ready": _now(), "runs": []}

    if not spec["setup_only"]:
        run_main = cli.main
        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            run_main = tracer.span("cli.main", cli.main)
        for command, out in spec["commands"]:
            argv = ["--jobs", "1", "--config", spec["config"], "--out", out, command]
            start = _now()
            status = run_main(argv)
            result["runs"].append(
                {"command": command, "status": status, "wall_s": _now() - start}
            )
        if tracer is not None:
            result["counters"] = tracer.counters
            with open(spec["spans"], "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

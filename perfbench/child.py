"""One benchmark run process: set up, make one CLI call, report.

Started fresh by ``run.py`` for every call, with a JSON spec as its only
argument.  Set-up covers importing the program, generating the inputs
and loading the config; the process then stamps itself ready.  In
``setup`` mode it stops there.  Otherwise it times one
``fracmv.cli.main`` call (optionally traced) and writes its result,
and the span file when traced, for ``run.py`` to read.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    from workloads import WORKLOADS, write_inputs

    import fracmv.cli

    argv, refs = write_inputs(
        WORKLOADS[spec["workload"]], spec["seed"], spec["tiny"], Path(spec["inputs"])
    )
    ready = time.monotonic()
    result = {"ready": ready, "refs": refs}

    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            import spans

            tracer = spans.Tracer(spec["run_id"])
            spans.install(tracer)
        start, cpu_start = time.perf_counter(), time.process_time()
        if tracer is None:
            code = fracmv.cli.main(argv + ["--out", spec["out"]])
        else:
            with tracer.span(spans.ROOT_SPAN):
                code = fracmv.cli.main(argv + ["--out", spec["out"]])
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.restore()
            tracer.dump(Path(spec["spans"]))
        result["env"] = environment()

    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def environment() -> dict:
    """Versions of the numeric stack this process ran on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main())

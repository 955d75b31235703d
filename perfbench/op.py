"""One benchmark op: a fresh interpreter runs one CLI command in-process.

    PYTHONPATH=src python3 perfbench/op.py '<json spec>'

The spec holds the CLI argv and, for a traced op, the span file and the
op id.  The last line of standard output is one JSON object with the
op's timing, the exit code, the captured CLI output and, when traced, the
per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy

import mono3dkit.cli


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("spans"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = mono3dkit.cli.main(spec["argv"])
        except Exception as exc:  # a traceback is a failed op, not a crash of the benchmark
            rc = f"uncaught {type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "op_s": op_s,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "minflt": usage.ru_minflt - flt0,
        "maxrss_kb": usage.ru_maxrss,
        "numpy": numpy.__version__,
        "mono3dkit": mono3dkit.cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.op_metrics(op_s, spec.get("pairs", 0))
        with open(spec["spans"], "a") as fh:
            tracer.write_spans(fh, spec["op_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

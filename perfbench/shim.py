"""Traced stand-in for ``python -m riskbounds.cli`` in one fresh interpreter.

    python3 perfbench/shim.py SPANS_PATH CLI_ARGS...

Times ``import riskbounds`` (and ``riskbounds.cli``), installs the span
wrappers from ``tracing``, calls ``riskbounds.cli.main(CLI_ARGS)``, writes
the spans to SPANS_PATH (+ ``.bin``) and the import record to
SPANS_PATH + ``.meta``, and exits with main's status.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import riskbounds  # noqa: F401
    import riskbounds.cli

    import_s = time.perf_counter() - t0
    meta = {
        "t_start": T_START,
        "import_s": import_s,
        "modules_loaded": len(sys.modules),
        "scipy_stats_loaded": "scipy.stats" in sys.modules,
    }
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        code = riskbounds.cli.main(argv)
    finally:
        tracer.write(spans_path)
        Path(str(spans_path) + ".meta").write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One measured `dmrecon run`, in a fresh interpreter.

    python3 benchmarks/child.py --config CFG --out DIR [--trace] [--spans FILE]

Times the set-up (`import dmrecon.cli` plus `io.parse_config` of the config)
and the run (`cli.main(["run", ...])` until results.csv is written), and
prints one JSON object as the last line of standard output. With --trace the
public functions are wrapped first (see tracer.py) and the per-function
summary is added; --spans also writes every span to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    t_import = time.perf_counter()
    import dmrecon.cli as cli
    from dmrecon import io

    import_s = time.perf_counter() - t_import

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t_parse = time.perf_counter()
    io.parse_config(Path(args.config).read_text(encoding="utf-8"))
    setup_s = import_s + time.perf_counter() - t_parse

    t_run = time.perf_counter()
    rc = cli.main(["run", "--config", args.config, "--out", args.out])
    run_s = time.perf_counter() - t_run

    report = {
        "exit_code": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "trace_id"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(report))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

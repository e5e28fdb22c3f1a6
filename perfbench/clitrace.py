"""Run the beilinson CLI with the per-layer tracer installed.

Usage: python3 clitrace.py STATS_JSON [CLI ARGUMENTS...]

Standard output and the exit code are those of the CLI itself; the import
time, the time spent in ``main`` and the tracer's raw state go to
STATS_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from beilinson import cli
    import_s = time.perf_counter() - start

    import tracer as tracing

    tr = tracing.Tracer()
    tr.install_constructor_counter()
    tr.install()
    raised = 0
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        raise
    except Exception:
        raised = 1
        code = None
        raise
    finally:
        main_s = time.perf_counter() - start
        tr.uninstall()
        state = tr.state()
        state["raised"]["cli"] = raised
        Path(stats_path).write_text(json.dumps({
            "subcommand": argv[0] if argv else "", "import_s": import_s, "main_s": main_s,
            "code": code if isinstance(code, int) else None, "state": state,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())

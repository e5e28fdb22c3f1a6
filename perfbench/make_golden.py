"""Record ``golden.json``: the facts of every golden-checked task, over the
full pools the seeds draw from.  Run it on the seed commit, from the root
of a source checkout:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    src = Path.cwd() / "src"
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import workloads

    golden = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in workloads.NAMES:
            workdir = Path(tmp) / name
            workdir.mkdir()
            tasks = workloads.build(name, 0, workdir, full_pools=True,
                                    cli_prefix=lambda: [sys.executable, "-m", "beilinson.cli"])
            for task in tasks:
                facts = getattr(task.check, "facts", None)
                if facts is not None:
                    golden[task.label] = json.loads(json.dumps(facts(task.run())))
                    print(f"{task.label}: {golden[task.label]}")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

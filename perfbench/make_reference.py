"""Write reference/relations.json: exit code and JSON output of every
invocation that the relations workload compares field by field.

Usage, from the root of a checkout:  PYTHONPATH=src python3 perfbench/make_reference.py

The committed file was made at commit 7bba9ae, before any change to the
program; regenerate it only for a deliberate change of the expected
outputs, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    import zetapoly.cli as cli

    outputs = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        out = Path(tmp) / "out.json"
        for label, argv in workloads.reference_cases().items():
            rc = cli.main(list(argv) + ["--format", "json", "--out", str(out)])
            outputs[label] = {"exit": rc, "output": json.loads(out.read_text())}
    payload = {"commit": run.git_commit(Path.cwd()), "outputs": outputs}
    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

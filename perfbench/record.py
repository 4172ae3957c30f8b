"""Regenerate perfbench/expected.json from the program as it is now.

    python3 perfbench/record.py

Run it only when a change is meant to alter the program's output; the file
it writes is what every benchmark run checks the outputs against.
"""
from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "wide.json"
        code = workloads.cli.main(
            ["resolve", *workloads.WIDE_ARGS, "--format", "json", "--out", str(out)]
        )
        if code != 0:
            raise SystemExit(f"resolve exited {code}")
        wide = workloads._digest(out.read_text(encoding="utf-8"))
    code, text = workloads.run_cli(workloads.EXACTNESS_ARGS)
    if code != 0:
        raise SystemExit(f"check-exactness exited {code}")
    sweep = workloads.RandomSweep(DEFAULT_SEED, {"seed": None}, None)
    digests = []
    for inst in sweep.instances:
        _, _, _, text_out, blob = sweep._instance(inst)
        digests.append(workloads._digest(text_out, blob)[:16])
    doc = {
        "wide-hypersurface": {"json_sha256": wide},
        "exactness-codim2": {"values": workloads.exactness_values(text)},
        "random-sweep": {"seed": DEFAULT_SEED, "digests": digests},
    }
    text = json.dumps(doc, indent=1)
    # one list per line keeps the file short and its diffs readable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    (HERE / "expected.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Write golden.json: output digests of the simulation workloads at the default seed.

    python3 bench/pin_golden.py

Run it from the root of a source checkout only when a change means to alter
the simulator's outputs, and say so where the change is described.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for cls in (workloads.SweepChat, workloads.SimLinks):
            work_dir = Path(tmp) / cls.name
            work_dir.mkdir()
            op = cls(work_dir).default_seed_run()
            if op.failed:
                print(f"{cls.name}: checks failed; nothing written", file=sys.stderr)
                return 1
            pins[cls.name] = op.digest
    workloads.GOLDEN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

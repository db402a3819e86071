"""Set-up probe: in a fresh interpreter, import factorial2k and load one workload's inputs.

Usage: python3 probe.py WORKLOAD WORKDIR SEED

Prints one JSON line with the ``time.perf_counter()`` reading when the
inputs are loaded and the time the import took.  The caller reads the
clock before starting this interpreter, so the difference is the
workload's set-up time.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    name, work, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import factorial2k.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.workloads()[name].load(workloads.Context(work=work, seed=seed))
    print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))


if __name__ == "__main__":
    main()

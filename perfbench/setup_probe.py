"""Time plgrad's set-up in a fresh process.

Set-up is importing plgrad, then make_config, build_problem and build_noise
for one workload.  Prints the seconds taken as the only line of output.
run.py starts this script several times and reports the median as setup_s.

Usage: python3 perfbench/setup_probe.py '<workload as JSON>' <seed>
"""

import sys
import time
from pathlib import Path

from workloads import Workload

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload = Workload.from_json(argv[0])
    seed = int(argv[1])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import plgrad

    cfg = workload.config(seed)
    plgrad.build_problem(cfg)
    plgrad.build_noise(cfg)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

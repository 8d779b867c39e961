"""Repeat the benchmark over seeds and print each end-to-end metric's median,
quartiles and spread (IQR / median), as the steadiness figures in
bench/README.md were made.

    python3 bench/steadiness.py WORKLOAD SEED[,SEED...]

Each run gets BENCHMARK.json's run_seconds.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    workload, seeds = sys.argv[1], [int(s) for s in sys.argv[2].split(",")]
    seconds = str(json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"])
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                               "--seconds", seconds, "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, f"{time.perf_counter() - start:.1f} s",
              {name: round(m["value"], 3) for name, m in result["metrics"].items()}, flush=True)
        for line in proc.stdout.splitlines()[:-1]:
            print("   ", line)
    for name, v in values.items():
        q1, median, q3 = statistics.quantiles(v, n=4)
        print(f"{workload} {name}: median {statistics.median(v):.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {(q3 - q1) / statistics.median(v):.4f}")
    print("failed share, correct:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())

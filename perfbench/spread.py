#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each workload and prints, for every
printed metric, the median and the distance between the first and third
quartile as a share of the median. The gated (end-to-end) metrics are
shown beside their bound from BENCHMARK.json. Run from the repository
root:

    python3 perfbench/spread.py --seeds 10 --workloads web_wire scan_report

Pass --bin to use an already-built benchmark executable instead of
`cargo run`. --out saves every value to a JSON file; --against compares
the medians with a file saved earlier, the way two sets of runs of the
same code are compared.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            values[parts[0]] = float(parts[2])
    return values


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--bin", help="benchmark executable to run directly")
    p.add_argument("--out", help="save every value to this JSON file")
    p.add_argument("--against", help="compare medians with a saved file")
    a = p.parse_args()
    cmd = [a.bin] if a.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    before = json.load(open(a.against)) if a.against else {}
    saved = {}
    for w in a.workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            for name, v in run_once(cmd, w, seed, a.seconds).items():
                values.setdefault(name, []).append(v)
        saved[w] = values
        for name, vs in values.items():
            med, sp = spread(vs)
            bound = bounds.get(name)
            line = f"{w:12s} {name:17s} median {med:12.4f}  spread {sp:6.3f}"
            if bound is not None:
                line += f"  bound {bound}"
                if name != "setup_s" and sp >= bound / 3:
                    line += "  <-- above bound/3"
            prev = before.get(w, {}).get(name)
            if prev and statistics.median(prev):
                shift = med / statistics.median(prev) - 1
                line += f"  shift vs earlier set {shift:+.3f}"
            print(line)
            print(f"{'':12s} {'':17s} values {', '.join(f'{v:.4g}' for v in vs)}")
        sys.stdout.flush()
        if a.out:
            with open(a.out, "w") as f:
                json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()

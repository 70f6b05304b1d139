"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload pipeline_toy --seeds 0-9 [--trace 1] [--out FILE]

Each seed is one `bench/run.py` process, run one after another with the
`run_seconds` from BENCHMARK.json. For every metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median, which is what the bounds in BENCHMARK.json are
compared with. `--out` also writes the summary, the per-seed results and
the environment of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        env = json.loads(lines[0])["env"]
        report = json.loads(lines[1])["report"]
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "report": report, "result": result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    names = list(runs[0]["result"]["metrics"])
    summary = {
        name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
        for name in names
    }
    for name, s in summary.items():
        print(f"{name:34s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
              f"q3 {s['q3']:12.4f}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "run_seconds": seconds,
            "env": env, "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

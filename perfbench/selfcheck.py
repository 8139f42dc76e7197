"""Self-check of the benchmark: run every workload on a tiny corpus and check what it prints.

    python3 perfbench/selfcheck.py   # about a minute

Each workload runs once untraced and twice traced with seed 1, each run
in its own process, and its summary is printed. The check fails unless
every run prints every metric named in BENCHMARK.json with its unit, no
instance fails, and the two traced runs give exactly the same calls,
builds and cap_hits counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (".calls", ".builds", ".cap_hits")


def run(workload, trace) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    print("\n".join(lines[:-1]) if trace == 0 else lines[0] + "\n" + lines[1])
    sys.stderr.write(out.stderr)
    return json.loads(lines[-1])


def metric_problems(label, result, expected) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        units = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong units {units}")
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} instances failed")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, 0)
        problems += metric_problems(f"{workload} untraced", plain, bench["end_to_end"])
        traced = [run(workload, 1) for _ in range(2)]
        for i, result in enumerate(traced):
            problems += metric_problems(f"{workload} traced run {i + 1}", result, bench["per_layer"])
        first, second = ({k: m["value"] for k, m in r["metrics"].items() if k.endswith(COUNTS)} for r in traced)
        changed = sorted(k for k in first if first[k] != second.get(k))
        if changed:
            problems.append(f"{workload}: traced counts differ between runs: {changed}")
    for problem in problems:
        print(f"SELF-CHECK FAILED {problem}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

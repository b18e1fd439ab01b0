"""Compare two commits on the benchmark with alternating parent/change pairs.

Usage (from a git checkout):

    python3 perfbench/compare.py PARENT CHANGE

Both commits are measured with the benchmark code of the working tree, on
the sources of each commit (``git archive <commit> src``), with identical
settings: ten pairs, seeds 1000 to 1009, the same seed within a pair, the
run length of BENCHMARK.json.  The side that runs first alternates from
pair to pair.  For every workload and end-to-end
metric it prints both medians and quartiles and one verdict:

* ``gain``: the change wins at least 9 of the 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound from BENCHMARK.json;
* ``unresolved``: a side's quartile spread, as a share of its median, exceeds
  the bound, and not every change run beats every parent run;
* ``no regression``: none of the above.

A gain is void when the change fails more ops than the parent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "compare")
PAIRS = 10
SEED0 = 1000


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def extract(commit: str) -> tuple[str, str]:
    """Sources of `commit` under .bench_work/compare/<sha>/src."""
    sha = git("rev-parse", "--verify", commit + "^{commit}").decode().strip()
    dest = os.path.join(WORK, sha[:12])
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, "src"))) as tar:
        tar.extractall(dest, filter="data")
    return sha, os.path.join(dest, "src")


def run_once(src: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--src", src]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float], extra_failures: bool) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regression"
    elif wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        word = "gain (void: more failures)" if extra_failures else "gain"
    else:
        word = "no regression"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins, "pairs": len(parent),
            "spread": spread, "bound": bound, "verdict": word}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change comparison")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    seconds = cfg["run_seconds"]
    names = [w["name"] for w in cfg["workloads"]]
    (psha, psrc), (csha, csrc) = extract(args.parent), extract(args.change)
    print(f"parent {psha[:12]}  change {csha[:12]}  {PAIRS} pairs, {seconds} s runs")
    summary = {"parent": psha, "change": csha, "pairs": PAIRS, "workloads": {}}
    for name in names:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            sides = [("parent", psrc), ("change", csrc)]
            for side, src in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run_once(src, name, SEED0 + i, seconds))
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        rows = {}
        print(f"\n{name}: failed ops parent {failed['parent']}, change {failed['change']}")
        print(f"  {'metric':12s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s} wins  verdict")
        for metric in cfg["end_to_end"]:
            key = metric["name"]
            vals = {s: [r["metrics"][key]["value"] for r in runs[s]] for s in runs}
            row = verdict(metric, vals["parent"], vals["change"], failed["change"] > failed["parent"])
            rows[key] = {**row, "runs": vals}
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"  {key:12s} {fmt(row['parent']):32s} {fmt(row['change']):32s} "
                  f"{row['wins']:2d}/{row['pairs']:<2d} {row['verdict']}")
        summary["workloads"][name] = {"failed": failed, "metrics": rows}
    path = os.path.join(WORK, f"summary-{psha[:12]}-{csha[:12]}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds, in two sets.

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --workloads random-corpus --seeds 5 --sets 1

For every end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile of the per-seed values, as a
share of their median), and between the first and last set the relative
change of the median in the metric's worse direction. Each figure is compared
with the metric's bound from BENCHMARK.json; setup_s is exempt from the spread
check. Each run is a separate process of run.py, one after the other.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10, help="seeds per set: 1..N")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for wl in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = [run_once(wl, seed, args.seconds) for seed in range(1, args.seeds + 1)]
            sets.append({n: [r[n] for r in runs] for n in bounds})
        print(f"== {wl}: {args.sets} set(s) of seeds 1..{args.seeds}, {args.seconds:g} s each")
        print(f"   {'metric':<18} {'bound':>6} " + " ".join(
            f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}" for i in range(args.sets))
            + (f" {'drift':>8}" if args.sets > 1 else ""))
        summary[wl] = {}
        for name, m in bounds.items():
            meds = [statistics.median(st[name]) for st in sets]
            spreads = [spread(st[name]) for st in sets]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            flag = ""
            if name != "setup_s" and max(spreads) > m["bound"]:
                flag, ok = " SPREAD>BOUND", False
            elif name != "setup_s" and max(spreads) > m["bound"] / 3:
                flag = " spread>bound/3"
            if args.sets > 1 and drift > m["bound"]:
                flag, ok = flag + " DRIFT>BOUND", False
            cells = " ".join(f"{md:>12.6g} {sp:>8.3f}" for md, sp in zip(meds, spreads))
            tail = f" {drift:>8.3f}" if args.sets > 1 else ""
            print(f"   {name:<18} {m['bound']:>6} {cells}{tail}{flag}")
            summary[wl][name] = {"medians": meds, "spreads": spreads, "drift": drift,
                                 "values": [st[name] for st in sets]}
        sys.stdout.flush()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(summary, indent=1))
    print("steady: all within bounds" if ok else "steady: some figure is outside its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

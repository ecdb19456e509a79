#!/usr/bin/env python3
"""Membership benchmark for setcircuits.

    python3 perfbench/run.py --workload mulcomp-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Each workload runs in one process with one
thread (the BLAS thread variables are pinned to 1 before numpy loads). The
untraced run (--trace 0) prints the end-to-end metrics; the traced run
(--trace 1) wraps the package's layer functions and prints the per-layer
metrics. Every verdict is checked against an oracle; the exit code is 1 when
any verdict is wrong, 2 when the package cannot be loaded. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller result (provenance, outcome counts, every per-layer measure) and the
span list of a traced run are written under perfbench/out/.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 15  # set-ups per run, spread over the timed phase; setup_s is their median
MIN_PASSES = 3  # a run is at least this many whole passes
TRACE_PASSES = 2  # a traced run replays this many passes, untraced then traced
SLICE_EVERY_NS = 20_000_000  # a calibration slice after each 20 ms of operations
SLICE_WINDOW = 50  # an operation's speed gauge: median of the slices within 50 either side

# Times of operations are reported in calibration slices (see calibration_slice):
# the operation's time divided by the time a fixed slice of work took at that
# moment of the run, so that the host's speed swings cancel.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50", "slice"),
    ("latency_p90", "slice"),
    ("latency_p99", "slice"),
    ("throughput", "1/kslice"),
    ("peak_rss_mb", "MB"),
)


class PackageMissing(RuntimeError):
    pass


def _ours(name):
    return name in ("setcircuits", "refeval") or name.startswith("setcircuits.")


def fresh_import():
    """Import setcircuits from this checkout's src/, dropping any earlier copy
    (and the test oracle, which binds names of the package when imported)."""
    for name in [k for k in sys.modules if _ours(k)]:
        del sys.modules[name]
    try:
        sc = importlib.import_module("setcircuits")
    except ImportError as e:
        raise PackageMissing(f"cannot import setcircuits from {ROOT / 'src'}: {e}") from e
    if not Path(sc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise PackageMissing(f"setcircuits loaded from {sc.__file__}, not from {ROOT / 'src'}")
    return sc


def start(cls, seed):
    """The package and the workload the run uses; this first import is not timed."""
    sc = fresh_import()
    wl = cls(sc, seed)
    wl.setup()
    return sc, wl


def setup_once(cls, seed):
    """Seconds for a fresh import of the package plus the workload's setup().
    The copy imported here is dropped again: the run keeps using its own."""
    kept = {k: v for k, v in sys.modules.items() if _ours(k)}
    gc.collect()
    t0 = time.perf_counter()
    sc = fresh_import()
    t1 = time.perf_counter()
    wl = cls(sc, seed)  # builds no inputs; generators run per pass
    t2 = time.perf_counter()
    wl.setup()
    took = (t1 - t0) + (time.perf_counter() - t2)
    for name in [k for k in sys.modules if _ours(k)]:
        del sys.modules[name]
    sys.modules.update(kept)
    return took


_SLICE_ARRAY = np.arange(24, dtype=np.int64)


def calibration_slice():
    """A fixed piece of work of the kinds the workloads do (an interpreter
    loop, small allocations, dict and sort operations, small numpy array
    operations), about 0.5 ms. It never changes and hashes no strings (their
    hashes change from process to process), so its time tracks the speed of
    the host."""
    s = 0
    for i in range(2_000):
        s += i * i % 7
    d = {}
    for i in range(300):
        d[i * 7919 % 1009] = (i, [i])
    s += len(sorted(d))
    a = _SLICE_ARRAY
    for _ in range(12):
        s += int(np.minimum(np.add.outer(a, a), 30).sum())
    return s


class Pacer:
    """Work between operations: a calibration slice after every SLICE_EVERY_NS
    of operation time, and a set-up measurement at each of SETUP_REPS points
    spread over the timed phase."""

    def __init__(self, seconds, setup=None):
        self.slices: list[int] = []  # ns per calibration slice
        self.setups: list[float] = []  # s per set-up
        self.setup = setup
        self.setup_at = [seconds * 1e9 * k / SETUP_REPS for k in range(SETUP_REPS)]
        self.op_ns = 0
        self.since = 0
        self.take_slice()

    def take_slice(self):
        calibration_slice()  # untimed: refills the caches the last operation used
        gc.disable()  # a collection would time the program's heap, not the host
        t0 = time.perf_counter_ns()
        calibration_slice()
        self.slices.append(time.perf_counter_ns() - t0)
        gc.enable()
        self.since = 0

    def after_op(self, ns):
        self.op_ns += ns
        self.since += ns
        if self.since >= SLICE_EVERY_NS:
            self.take_slice()
        if self.setup and len(self.setups) < SETUP_REPS and self.op_ns >= self.setup_at[len(self.setups)]:
            self.setups.append(self.setup())

    def finish_setups(self):
        while self.setup and len(self.setups) < SETUP_REPS:
            self.setups.append(self.setup())

    def gauges(self):
        """Per slice index: the median slice time within SLICE_WINDOW of it."""
        n, w = len(self.slices), SLICE_WINDOW
        return [statistics.median(self.slices[max(0, i - w): i + w + 1]) for i in range(n)]


class Outcomes:
    """Verdicts, refusals and errors of the operations run so far."""

    def __init__(self):
        self.attempted = 0
        self.verdicts = 0
        self.refused = Counter()  # BudgetExceeded kind -> count
        self.errors = Counter()  # exception type -> count
        self.checked = 0
        self.wrong = 0

    @property
    def failed(self):
        return self.attempted - self.verdicts


def run_pass(wl, ops, out: Outcomes, tracer=None, pacer=None):
    """Run one deck; returns (verdict or None, latency ns, index of the last
    calibration slice before it) per op."""
    budget_exc = wl.sc.BudgetExceeded
    clock = time.perf_counter_ns
    verdicts, lat, at = [], [], []
    for i, op in enumerate(ops):
        with tracer.op(i) if tracer else nullcontext():
            t0 = clock()
            try:
                v = wl.run(op)
            except budget_exc as e:
                v = None
                out.refused[e.kind] += 1
            except Exception as e:  # any other failure ends the op without a verdict
                v = None
                out.errors[type(e).__name__] += 1
            t1 = clock()
        verdicts.append(v)
        lat.append(t1 - t0)
        if pacer:
            at.append(len(pacer.slices) - 1)
            pacer.after_op(t1 - t0)
    out.attempted += len(ops)
    out.verdicts += sum(v is not None for v in verdicts)
    return verdicts, lat, at


def check_pass(wl, ops, verdicts, out: Outcomes):
    for op, v in zip(ops, verdicts):
        if v is None:
            continue
        ok = wl.check(op, v)
        if ok is not None:
            out.checked += 1
            out.wrong += not ok


def finish(wl, out: Outcomes):
    checked, wrong = wl.finish()
    out.checked += checked
    out.wrong += wrong


def percentile(sorted_vals, q):
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[q - 1]


def untraced(wl, seconds, setup):
    out = Outcomes()
    pacer = Pacer(seconds, setup)
    ok: list = []  # per op: reached a verdict
    lat: list = []
    at: list = []
    pass_s: list = []
    k = 0
    while k < MIN_PASSES or sum(pass_s) + statistics.median(pass_s) <= seconds:
        ops = wl.deck(k)
        verdicts, p_lat, p_at = run_pass(wl, ops, out, pacer=pacer)
        pass_s.append(sum(p_lat) / 1e9)
        ok.extend(v is not None for v in verdicts)
        lat.extend(p_lat)
        at.extend(p_at)
        check_pass(wl, ops, verdicts, out)
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pacer.take_slice()
    pacer.finish_setups()
    finish(wl, out)
    gauge = pacer.gauges()
    rel = [t / gauge[i] for t, i in zip(lat, at)]  # in calibration slices
    rel_ok = sorted(r for r, good in zip(rel, ok) if good)
    ms_ok = sorted(t / 1e6 for t, good in zip(lat, ok) if good)
    metrics = {
        "setup_s": statistics.median(pacer.setups),
        "latency_p50": percentile(rel_ok, 50),
        "latency_p90": percentile(rel_ok, 90),
        "latency_p99": percentile(rel_ok, 99),
        "throughput": 1e3 * out.verdicts / sum(rel),
        "peak_rss_mb": rss_mb,
    }
    slice_ms = statistics.quantiles(pacer.slices, n=4)
    info = {
        "passes": k, "timed_s": sum(pass_s), "latency_samples": len(rel_ok),
        "calibration_slices": len(pacer.slices),
        "slice_ms_quartiles": [q / 1e6 for q in slice_ms],
        "slice_overhead_frac": sum(pacer.slices) / sum(lat),
        "setup_s_all": pacer.setups,
        "latency_p50_ms": percentile(ms_ok, 50),
        "latency_p90_ms": percentile(ms_ok, 90),
        "latency_p99_ms": percentile(ms_ok, 99),
        "throughput_ops_s": out.verdicts / sum(pass_s),
    }
    return out, metrics, info


def traced(wl, tracer):
    """Replay TRACE_PASSES decks untraced then traced; per-layer rollup."""
    out = Outcomes()
    plain_ns = traced_ns = 0
    for k in range(TRACE_PASSES):
        ops = wl.deck(k)
        verdicts, lat, _ = run_pass(wl, ops, out)
        check_pass(wl, ops, verdicts, out)
        plain_ns += sum(lat)
        tracer.install()
        try:
            again, lat, _ = run_pass(wl, ops, Outcomes(), tracer)
        finally:
            tracer.uninstall()
        traced_ns += sum(lat)
        out.wrong += sum(a != b for a, b in zip(verdicts, again))  # tracing changed a verdict
    finish(wl, out)
    layers = tracer.rollup()
    layers["trace_overhead_frac"] = traced_ns / plain_ns - 1
    return out, layers, {"passes": TRACE_PASSES}


# ---------------------------------------------------------------------------
# provenance


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(sc, wl, seed):
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": wl.name,
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir("/proc/self/task")),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine_budget": dataclasses.asdict(wl.budget),
        "src_lines": src_lines,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# entry points


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def measure(name, seed, seconds, trace):
    """Run one workload in this process; returns the full result dict."""
    began = time.perf_counter()
    cls = WORKLOADS[name]
    sc, wl = start(cls, seed)
    prov = provenance(sc, wl, seed)
    if trace:
        from spans import Tracer

        tracer = Tracer()
        out, layers, info = traced(wl, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = {n: {"value": layers.get(n, 0), "unit": u} for n, u in per_layer_names()}
    else:
        out, e2e, info = untraced(wl, seconds, lambda: setup_once(cls, seed))
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
        layers = None
    info["wall_s"] = time.perf_counter() - began
    return {
        "provenance": prov,
        "run": info,
        "outcomes": {
            "attempted": out.attempted,
            "verdicts": out.verdicts,
            "failed": out.failed,
            "failed_frac": out.failed / out.attempted,
            "refused": dict(out.refused),
            "errors": dict(out.errors),
            "checked": out.checked,
            "wrong_verdicts": out.wrong,
        },
        "metrics": metrics,
        "layers": layers,
    }


def report(res, trace):
    prov, oc = res["provenance"], res["outcomes"]
    print(f"== {prov['workload']}  seed {prov['seed']}  {'traced' if trace else 'untraced'}")
    for key, val in prov.items():
        print(f"   {key}: {val}")
    for key, val in res["run"].items():
        print(f"   {key}: {val}")
    for key, val in oc.items():
        print(f"   {key}: {val}")
    for name, m in res["metrics"].items():
        print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
    if res["layers"]:
        print("   -- every per-layer measure --")
        for name in sorted(res["layers"]):
            print(f"   {name:<48} {res['layers'][name]:>14.6g}")


def main_one(args):
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except PackageMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(res, indent=1, default=str))
    report(res, args.trace)
    oc = res["outcomes"]
    print(json.dumps({
        "correct": oc["wrong_verdicts"] == 0,
        "attempted": oc["attempted"],
        "failed": oc["failed"],
        "metrics": res["metrics"],
    }))
    return 0 if oc["wrong_verdicts"] == 0 else 1


def main_all(args):
    """Every workload in its own process, one after the other."""
    lines, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        last = proc.stdout.strip().splitlines()[-1:] if proc.returncode in (0, 1) else []
        lines[name] = json.loads(last[0]) if last else None
    print(json.dumps(lines))
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "setcircuits").is_dir():
        print(f"error: no setcircuits package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return main_all(args) if args.workload == "all" else main_one(args)


if __name__ == "__main__":
    sys.exit(main())

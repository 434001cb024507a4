"""Layered benchmark for roeclass.

    python3 bench/run.py --workload {cli,algebra,geometry,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from its
``src/`` directory, nothing needs installing.  Each workload is a closed loop
of one client in one process (the ``cli`` workload starts one ``roeclass``
process at a time), over inputs generated from ``--seed``.  Every operation's
output is checked against the independent references in ``oracle.py``.

End-to-end times are wall times scaled to a reference speed by a gauge read
between operations (``speed.py``), because the shared hosts this runs on
change speed by a quarter or more for long spells; the raw figures are
printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs half the time with spans around every layer and half without, and
prints the per-layer metrics plus ``trace.overhead_pct``.  The last line of
stdout is the JSON result; the lines before it give every metric with its
unit, the error count and the environment.  Each run appends a full record to
``.bench_work/results.jsonl`` and a traced run writes its spans to
``.bench_work/trace-<workload>-<seed>.json``.  ``compare.py`` compares two
results files.  Seed 0 is pinned: its canonical outputs must hash to the
digests in ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter, time

import speed
from oracle import CheckFailed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli", "algebra", "geometry")
PINNED_SEED = 0
SETUP_REPEATS = 3


def load_workload(name: str, seed: int):
    if name == "cli":
        import wl_cli as mod
    elif name == "algebra":
        import wl_algebra as mod
    else:
        import wl_geometry as mod
    return mod.Workload(seed, WORK / name)


# -- statistics -----------------------------------------------------------------

def percentile(sorted_vals: list[float], p: float) -> float:
    rank = p / 100 * (len(sorted_vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (to 0.1) with at least ten samples beyond it."""
    return max(50.0, int(1000 * (1 - 10 / n)) / 10) if n > 0 else 50.0


# -- one measured phase ------------------------------------------------------------

class Phase:
    def __init__(self):
        self.latency: list[float] = []  # raw wall times
        self.scaled: list[float] = []  # the same, scaled to the reference speed
        self.factors: list[float] = []  # speed factor of each interval
        self.kinds: list[str] = []
        self.errors: list[tuple[str, str]] = []
        self.digest = hashlib.sha256()
        self.groups = 0

    @property
    def ops_per_s(self) -> float:
        """Operations per second of scaled operation time; checking is not
        timed."""
        return len(self.scaled) / sum(self.scaled)


def measure(wl, seconds: float, tracer: Tracer | None, min_groups: int) -> Phase:
    """Run whole groups of operations, at least ``min_groups``, and then
    another only while it would end nearer to ``seconds`` than not.  The
    clock of an operation stops before its output is checked, so checking
    costs no measured time.  Between operations, at least every
    ``speed.EVERY_S``, the workload's speed gauge is read; its readings
    scale the raw times when the phase ends."""
    phase = Phase()
    wl.begin_phase(tracer)
    gauge = speed.Gauge(wl.gauge)
    try:
        start = perf_counter()
        elapsed = 0.0
        while (phase.groups < min_groups
               or elapsed + elapsed / phase.groups / 2 < seconds):
            for op in wl.group(phase.groups):
                if tracer is not None:
                    tracer.op = len(phase.latency)
                error = None
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception as e:  # a raising operation is a failed one
                    error = f"{type(e).__name__}: {e}"
                dt = perf_counter() - t0
                if error is None:
                    try:
                        canon = op.check(result)
                    except CheckFailed as e:
                        error = str(e)
                    except (ValueError, KeyError, TypeError, IndexError) as e:
                        error = f"malformed output: {type(e).__name__}: {e}"
                phase.latency.append(dt)
                phase.kinds.append(op.kind)
                if error is not None:
                    phase.errors.append((op.kind, error))
                elif phase.groups < wl.digest_groups:
                    phase.digest.update(canon.encode() + b"\n")
                if gauge.due():
                    gauge.read(len(phase.latency))
            phase.groups += 1
            elapsed = perf_counter() - start
        gauge.read(len(phase.latency))
        phase.scaled, phase.factors = gauge.scale(phase.latency)
    finally:
        wl.end_phase()
    return phase


# -- environment ------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": os.cpu_count(),
            "commit": git_commit(), "seed": seed}


# -- metrics ----------------------------------------------------------------------

def end_to_end(latency: list[float], wl, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(latency)
    n = len(lat)
    p = tail_percentile(n)
    values = {
        "ops_per_s": n / sum(lat),
        "p50_ms": 1000 * statistics.median(lat),
        "tail_ms": 1000 * percentile(lat, p),
        "peak_rss_mb": wl.peak_rss_mb(),
        "setup_s": setup_s,
    }
    notes = {"tail_ms": f"p{p:g}, {n - int(p / 100 * (n - 1)) - 1} samples beyond, {n} samples"}
    return values, notes


def per_layer(names: list[str], tracer: Tracer, traced: Phase, plain: Phase, wl) -> dict:
    special = wl.layer_metrics(tracer, traced, plain)
    special["trace.overhead_pct"] = 100 * (plain.ops_per_s / traced.ops_per_s - 1)
    out = {}
    for name in names:
        layer, _, what = name.partition(".")
        if name in special:
            out[name] = special[name]
        elif what == "self_ms":
            out[name] = tracer.layer_self_ms(layer)
        elif what == "errors":
            out[name] = tracer.errors[layer]
        elif what == "calls":
            out[name] = sum(c for s, c in tracer.calls.items() if s.split(".")[0] == layer)
        elif name.endswith("_ms"):
            base = name[:-3]
            out[name] = 1000 * sum(v for s, v in tracer.self_s.items()
                                   if s == base or s.startswith(base + "_"))
        else:
            out[name] = tracer.counts[name]
    return out


# -- running a workload -------------------------------------------------------------

def run_one(args, spec: dict) -> int:
    WORK.mkdir(exist_ok=True)
    wl = load_workload(args.workload, args.seed)
    wl.import_program()
    # set-up time: the medians of fresh imports and of input generation
    # plus warm-up, alternating; it is scaled by the interpreter-start gauge,
    # which tracks it best in every workload
    gauge = speed.Gauge("start")
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(wl.import_s())
        gauge.read(len(times))
        t0 = perf_counter()
        wl.setup()
        wl.warmup()
        times.append(perf_counter() - t0)
        gauge.read(len(times))
    scaled, _ = gauge.scale(times)
    raw_setup_s = statistics.median(times[0::2]) + statistics.median(times[1::2])
    setup_s = statistics.median(scaled[0::2]) + statistics.median(scaled[1::2])

    phases = []
    raw = {}
    if args.trace:
        tracer = Tracer()
        traced = measure(wl, args.seconds / 2, tracer, 1)
        wl.reset()
        plain = measure(wl, args.seconds / 2, None, 1)
        phases = [traced, plain]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(names, tracer, traced, plain, wl)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        notes = {}
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
    else:
        phase = measure(wl, args.seconds, None, wl.min_groups)
        phases = [phase]
        metrics, notes = end_to_end(phase.scaled, wl, setup_s)
        raw, _ = end_to_end(phase.latency, wl, raw_setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: metrics[name] for name in units}
        raw = {name: raw[name] for name in units}
    wl.close()

    attempted = sum(len(p.latency) for p in phases)
    errors = [e for p in phases for e in p.errors]
    digest = phases[0].digest.hexdigest()
    expected = json.loads((BENCH / "digests.json").read_text()).get(args.workload)
    digest_ok = args.seed != PINNED_SEED or digest == expected
    correct = not errors and digest_ok

    env = environment(args.seed)
    kinds: dict[str, int] = {}
    for kind in phases[0].kinds:
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"# workload={args.workload} trace={args.trace} seconds={args.seconds} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops={len(phases[0].latency)} groups={phases[0].groups} kinds={json.dumps(kinds)}")
    print(f"# digest of the first {wl.digest_groups} groups: {digest}"
          + ("" if args.seed != PINNED_SEED else " (matches)" if digest_ok else
             f" (EXPECTED {expected})"))
    for kind, msg in errors[:20]:
        print(f"# FAILED {kind}: {msg}")
    factors = sorted(f for p in phases for f in p.factors)
    print(f"# speed factor of the {wl.gauge} gauge (reference / measured time): "
          f"median {statistics.median(factors):.4f}, range {factors[0]:.4f}-{factors[-1]:.4f}, "
          f"{len(factors)} intervals")
    if raw:
        print("# raw, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, v in metrics.items():
        print(f"{name} {v!r} {units[name]}" + (f" ({notes[name]})" if name in notes else ""))
    print(f"error_rate {len(errors) / attempted!r} ratio ({len(errors)} failed / {attempted} attempted)")

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": env, "ops": kinds, "groups": phases[0].groups, "digest": digest,
              "digest_ok": digest_ok, "attempted": attempted, "failed": len(errors),
              "errors": errors[:20], "metrics": metrics, "raw_metrics": raw,
              "speed_factors": [statistics.median(factors), factors[0], factors[-1]],
              "units": units, "notes": notes,
              "time": time()}
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "roeclass" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'roeclass'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

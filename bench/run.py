"""growthcap benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload {profile,lattice,spectrum,cli,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 its per-layer metrics.  The lines before it
print every metric with its unit, the op counts, the error rate and the
per-stratum medians; the full record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("profile", "lattice", "spectrum", "cli")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program() -> None:
    """Import growthcap from this checkout's src/ or raise ImportError."""
    pkg = os.path.join(SRC, "growthcap")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise ImportError(f"no growthcap package under {SRC}")
    sys.path.insert(0, SRC)
    import growthcap

    if os.path.realpath(os.path.dirname(growthcap.__file__)) != os.path.realpath(pkg):
        raise ImportError(f"growthcap imported from {growthcap.__file__}, not from {pkg}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from mpmath import mp

    import harness
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name](seed)
    mp.prec = wl.prec
    setup, setup_raw = harness.setup_seconds(SRC, wl.setup_snippet)
    wl.warmup()
    wall_limit = 2 * seconds + 30
    records, timed, blocks = harness.run_loop(wl.block, seconds * (0.4 if trace else 1.0), wall_limit)
    e2e = harness.end_to_end(records)
    e2e["setup_s"] = setup
    e2e["raw"]["setup_s"] = setup_raw
    e2e["peak_rss_mb"] = harness.peak_rss_mb()
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": harness.environment(ROOT),
        "end_to_end": e2e,
        "op_seconds": timed,
        "blocks": blocks,
        "strata": harness.strata_rows(records),
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, traced_blocks = harness.run_loop(
                wl.block, 0.0, wall_limit, tracer=tracer, n_blocks=blocks
            )
        finally:
            tracer.uninstall()
        untraced = [r for r in records if r.block < traced_blocks]
        layers = tracer.layer_metrics(len(traced))
        # at the nominal host speed, so that host drift between the passes cancels
        layers["trace.overhead_ratio"] = sum(harness.scaled_latencies(traced)) / sum(
            harness.scaled_latencies(untraced)
        )
        result["per_layer"] = layers
        result["spans"] = tracer.spans()
        result["op_layers"] = [
            {"kind": r.kind, "stratum": r.stratum, "latency": r.latency, "layers": r.layers} for r in traced
        ]
        records = records + traced
    result["attempted"] = len(records)
    result["failed"] = sum(r.outcome != "ok" for r in records)
    result["failures"] = [
        {"kind": r.kind, "stratum": r.stratum, "outcome": r.outcome, "detail": r.detail[:300]}
        for r in records
        if r.outcome != "ok"
    ]
    probes = wl.probes()
    result["probes"] = [
        {"kind": r.kind, "stratum": r.stratum, "outcome": r.outcome, "defect": op.defect, "detail": r.detail[:300]}
        for op, r in zip(probes, harness.run_block(probes))
    ]
    return result


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the last-line result object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = result["end_to_end"]
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  trace {result['trace']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"ops_per_s       {e2e['ops_per_s']:.6g} {units['ops_per_s']}"
        f"  ({result['attempted']} ops attempted, {result['op_seconds']:.3f} s of op time, {result['blocks']} blocks)"
    )
    print(f"latency_p50_ms  {e2e['latency_p50_ms']:.6g} {units['latency_p50_ms']}")
    print(
        f"latency_p90_ms  {e2e['latency_p90_ms']:.6g} {units['latency_p90_ms']}"
        f"  ({e2e['samples']} samples, {e2e['beyond_p90']} beyond p90)"
    )
    print(f"error_rate      {e2e['error_rate']:.6g} ratio  ({result['failed']} failed of {result['attempted']})")
    print(f"setup_s         {e2e['setup_s']:.6g} {units['setup_s']}")
    print(f"peak_rss_mb     {e2e['peak_rss_mb']:.6g} {units['peak_rss_mb']}")
    raw = "  ".join(f"{k}={v:.6g}" for k, v in e2e["raw"].items())
    print(f"host_speed      {e2e['host_speed']:.4g}  (times above are scaled to speed 1; raw: {raw})")
    for row in result["strata"]:
        print(f"stratum {row['stratum']:<34} n={row['n']:<5} p50_ms={row['p50_ms']:<12} failed={row['failed']}")
    for f in result["failures"][:12]:
        print(f"failure {f['kind']} {f['stratum']} {f['outcome']}: {f['detail'][:160]}")
    for p in result["probes"]:
        state = "shows" if p["outcome"] != "ok" else "NOT SHOWN (fixed?)"
        print(f"defect_probe {p['kind']} {p['stratum']}: {state} [{p['outcome']}] {p['defect']}")
    if result["trace"]:
        for name, value in result["per_layer"].items():
            print(f"layer {name:<32} {value:.6g} {units[name]}")
    names = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    source = result["per_layer"] if result["trace"] else e2e
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": source[n], "unit": units[n]} for n in names},
    }


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    rows, ok, attempted, failed = [], True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        rows.append((name, last))
    print("summary")
    for name, last in rows:
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in last["metrics"].items())
        rate = last["failed"] / last["attempted"]
        print(f"  {name:<9} {cells}  error_rate={rate:.4g} ratio  attempted={last['attempted']} failed={last['failed']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "workloads": {name: last["metrics"] for name, last in rows}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="growthcap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = _spec()
        _import_program()
    except (OSError, ValueError, ImportError) as exc:
        return _fail(str(exc))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.environ.pop("GROWTH_CAPACITY_PRECISION", None)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(result, spec)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    import harness

    harness.dump(path, result)
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop timing harness: one client, one process, no threads.

A workload hands the harness blocks of `Op`s.  Each op runs under its own
deadline (SIGALRM, so an abandoned op costs exactly its deadline), then every
op of the block is checked against an independent oracle outside the timed
region.  Wall time in the metrics is the sum of op latencies: input
generation and checking are excluded.

The host's speed drifts (on a shared 2-vCPU VM by up to ~40% over seconds
to minutes), so a fixed reference loop is timed just before every op, and
each latency is scaled to the host speed at which the reference loop takes
`REF_NOMINAL_S`: latency * REF_NOMINAL_S / (median reference time of the
ops around it).  The metrics are taken from the scaled latencies; the raw
ones are printed beside them.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 21
REF_NOMINAL_S = 0.65e-3  # the reference loop's time on a quiet 2-vCPU host (2.1 GHz)
REF_WINDOW = 8  # ops on each side whose reference times give an op's host speed


class Overrun(BaseException):
    """Raised by SIGALRM inside an op that passed its deadline.

    A BaseException so that no `except Exception` in the program swallows it.
    """


class CheckFailed(Exception):
    """An op's output disagreed with the oracle."""


@dataclass
class Op:
    kind: str
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], None]
    deadline: float
    defect: str = ""  # for a probe: the seed's known defect it hits
    prepare: Optional[Callable[[], None]] = None
    out_bytes: Optional[Callable[[object], int]] = None


@dataclass
class Record:
    kind: str
    stratum: str
    latency: float
    outcome: str  # ok | wrong | raised | overrun
    detail: str = ""
    ref: float = REF_NOMINAL_S  # reference-loop time measured just before the op
    block: int = 0
    layers: dict = field(default_factory=dict)


def reference() -> float:
    """Wall time of a fixed pure-Python loop (small and big integers and
    fractions, like the program's own work): the host-speed probe."""
    t0 = perf_counter()
    x, big, s = Fraction(0), 3**600, 0
    for i in range(1, 120):
        x += Fraction(i, i + 1)
        big = (big * 12345 + i) % pow(7, 700)
    for i in range(3000):
        s += i * i % 7
    return perf_counter() - t0


def _on_alarm(signum, frame):
    raise Overrun()


def call_with_deadline(fn, deadline: float):
    """(result, latency, outcome, detail); an overrun reports latency = deadline."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = fn()
            latency = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        return None, deadline, "overrun", f"no result within {deadline} s"
    except Exception as exc:  # the op failed; the run goes on
        return None, perf_counter() - t0, "raised", f"{type(exc).__name__}: {exc}"
    return result, latency, "ok", ""


def run_block(ops: list[Op], tracer=None) -> list[Record]:
    """Run the ops of one block in order, then check each one."""
    done = []
    for op in ops:
        if op.prepare is not None:
            try:
                with _paused(tracer):
                    op.prepare()
            except Exception as exc:  # an earlier op of the block failed
                rec = Record(op.kind, op.stratum, 0.0, "raised", f"input not available: {exc!r}")
                done.append((op, rec, None))
                continue
        ref = reference()
        before = tracer.layer_snapshot() if tracer else None
        if tracer:
            tracer.begin_op()
        result, latency, outcome, detail = call_with_deadline(op.run, op.deadline)
        rec = Record(op.kind, op.stratum, latency, outcome, detail, ref)
        if tracer:
            rec.layers = tracer.layer_delta(before)
            if outcome == "ok" and op.out_bytes is not None:
                tracer.counters["cli.out_bytes"] += op.out_bytes(result)
        done.append((op, rec, result))
    with _paused(tracer):
        for op, rec, result in done:
            if rec.outcome == "ok":
                try:
                    op.check(result)
                except CheckFailed as exc:
                    rec.outcome, rec.detail = "wrong", str(exc)
                except Exception as exc:  # a checker that cannot decide fails the op
                    rec.outcome, rec.detail = "wrong", f"check error {type(exc).__name__}: {exc}"
    return [rec for _, rec, _ in done]


@contextlib.contextmanager
def _paused(tracer):
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def run_loop(make_block, budget_s: float, wall_limit_s: float, tracer=None, n_blocks=None):
    """Run blocks 0, 1, ... until `budget_s` of op time and MIN_OPS ops are spent
    (or exactly `n_blocks` blocks); returns (records, op seconds, blocks run)."""
    records: list[Record] = []
    timed = 0.0
    start = perf_counter()
    i = 0
    while True:
        if n_blocks is not None:
            if i >= n_blocks:
                break
        elif timed >= budget_s and len(records) >= MIN_OPS:
            break
        if perf_counter() - start > wall_limit_s:
            break
        with _paused(tracer):  # input generation is not the program's work
            ops = make_block(i)
        recs = run_block(ops, tracer)
        for r in recs:
            r.block = i
        records.extend(recs)
        timed += sum(r.latency for r in recs)
        i += 1
    return records, timed, i


# -- statistics ------------------------------------------------------------------


def scaled_latencies(records: list[Record]) -> list[float]:
    """Each latency at the nominal host speed (see the module docstring)."""
    refs = [r.ref for r in records]
    out = []
    for i, r in enumerate(records):
        local = statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        out.append(r.latency * REF_NOMINAL_S / local)
    return out


def latency_summary(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "p50": statistics.median(lat),
        "p90": p90,
        "n": len(lat),
        "beyond_p90": sum(1 for v in lat if v > p90),
    }


def strata_rows(records: list[Record]) -> list[dict]:
    groups: dict[str, list[Record]] = {}
    for r in records:
        groups.setdefault(r.stratum, []).append(r)
    rows = []
    for name in sorted(groups):
        recs = groups[name]
        rows.append(
            {
                "stratum": name,
                "n": len(recs),
                "p50_ms": round(1000 * statistics.median(r.latency for r in recs), 4),
                "failed": sum(r.outcome != "ok" for r in recs),
            }
        )
    return rows


def end_to_end(records: list[Record]) -> dict:
    """The metrics at the nominal host speed, and the raw ones beside them."""
    passed = sum(r.outcome == "ok" for r in records)
    scaled = scaled_latencies(records)
    raw = [r.latency for r in records]
    lat, lat_raw = latency_summary(scaled), latency_summary(raw)
    return {
        "ops_per_s": passed / sum(scaled),
        "latency_p50_ms": 1000 * lat["p50"],
        "latency_p90_ms": 1000 * lat["p90"],
        "error_rate": (len(records) - passed) / len(records),
        "samples": lat["n"],
        "beyond_p90": lat["beyond_p90"],
        "host_speed": REF_NOMINAL_S / statistics.median(r.ref for r in records),
        "raw": {
            "ops_per_s": passed / sum(raw),
            "latency_p50_ms": 1000 * lat_raw["p50"],
            "latency_p90_ms": 1000 * lat_raw["p90"],
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up time -------------------------------------------------------------------


def setup_seconds(src_dir: str, snippet: str, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median wall time for a fresh interpreter to import and run `snippet`:
    (at the nominal host speed, raw)."""
    code = f"import sys\nsys.path.insert(0, {src_dir!r})\n{snippet}\n"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GROWTH_CAPACITY_PRECISION")}
    times, scaled = [], []
    for _ in range(repeats):
        ref = statistics.median(reference() for _ in range(5))
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=src_dir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
            check=True,
        )
        times.append(perf_counter() - t0)
        scaled.append(times[-1] * REF_NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(times)


# -- provenance ----------------------------------------------------------------------


def environment(root: str) -> dict:
    from importlib import metadata

    import mpmath

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def dump(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")

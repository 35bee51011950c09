"""Tests of the benchmark itself (not of growthcap).

    python3 -m pytest -q bench/test_bench.py

The smoke tests run the real command on short runs; the checker tests feed
planted wrong values to each checker directly, never to the program.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from mpmath import mp  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from growthcap.halfplane import TangentCircle  # noqa: E402
from growthcap.markoff import SpectrumEntry  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _printed_names(stdout: str) -> set:
    return {ln.split()[0] for ln in stdout.splitlines() if ln.split() and ln.split()[0] in E2E + ["error_rate"]}


@pytest.fixture(scope="module")
def smoke():
    return {trace: _run("--workload", "all", "--seed", "7", "--seconds", "1", "--trace", str(trace)) for trace in (0, 1)}


def test_benchmark_json_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in E2E and all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = E2E + PER_LAYER
    assert len(names) == len(set(names))


def test_smoke_prints_every_metric_for_all_workloads(smoke):
    proc = smoke[0]
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("workload ")[1:]
    assert [b.split()[0] for b in blocks] == list(workloads.WORKLOADS)
    for block in blocks[:4]:
        assert _printed_names(block) == set(E2E) | {"error_rate"}
        assert re.search(r"\((\d+) ops attempted", block)
        assert re.search(r"\((\d+) samples, (\d+) beyond p90\)", block)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in workloads.WORKLOADS:
        assert set(last["workloads"][name]) == set(E2E)
        assert all(v["value"] > 0 for v in last["workloads"][name].values())


def test_traced_and_untraced_runs_emit_the_same_end_to_end_names(smoke):
    plain, traced = smoke[0].stdout.split("workload ")[1:5], smoke[1].stdout.split("workload ")[1:5]
    assert smoke[1].returncode == 0, smoke[1].stderr
    for a, b in zip(plain, traced):
        assert _printed_names(a) == _printed_names(b) == set(E2E) | {"error_rate"}
    last = json.loads(smoke[1].stdout.strip().splitlines()[-1])
    for name in workloads.WORKLOADS:
        assert set(last["workloads"][name]) == set(PER_LAYER)


def test_timed_ops_pass_and_seed_defects_show_in_probes(smoke):
    blocks = dict(b.split(None, 1) for b in smoke[0].stdout.split("workload ")[1:5])
    for name in workloads.WORKLOADS:
        failed = re.search(r"error_rate\s+\S+ ratio\s+\((\d+) failed", blocks[name])
        assert int(failed.group(1)) == 0, name
        probes = re.findall(r"^defect_probe .*: (shows|NOT SHOWN)", blocks[name], flags=re.M)
        assert probes and set(probes) == {"shows"}, name


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "profile", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- every checker rejects a planted wrong value --------------------------------------


def _plant(kind, value):
    """A wrong variant of an op's correct output."""
    if kind == "build_profile":
        piece = value.pieces[3]
        bad = dataclasses.replace(piece, A=piece.A * Fraction(10**40 + 1, 10**40))
        return dataclasses.replace(value, pieces=value.pieces[:3] + (bad,) + value.pieces[4:])
    if kind == "local_minima":
        t0, fmin = value[2]
        return value[:2] + [(t0, fmin * Fraction(10**40 + 1, 10**40))] + value[3:]
    if kind in ("evaluate", "growth_capacity", "growth_capacity_direct"):
        return value + Fraction(1, 10**300)
    if kind == "hermite_convergents":
        return value[:2] + value[3:]
    if kind == "average_capacity_estimate":
        return dataclasses.replace(value, limsup_estimate=value.limsup_estimate * (1 + mp.mpf(2) ** -40))
    if kind == "tangent_circle":
        return TangentCircle(value.cusp, value.diameter * Fraction(10**40 + 1, 10**40))
    if kind.startswith("float_capacity"):
        return value * (1 + mp.mpf(2) ** -20)
    if kind == "hermite_oracle_geodesic":
        return value[:1] + value[2:]
    if kind in ("lagrange_number", "sup_of_minima"):
        return value * Fraction(10**6 + 1, 10**6)
    if kind == "lagrange_of_constant":
        return value * 2
    if kind == "markoff_numbers":
        return sorted(value + [4])
    if kind == "lagrange_spectrum":
        return value[:-1] + [SpectrumEntry(m=value[-1].m + 1, L=value[-1].L)]
    raise AssertionError(kind)


@pytest.mark.parametrize("name", ["profile", "lattice", "spectrum"])
def test_library_checkers_reject_planted_values(name):
    wl = workloads.WORKLOADS[name](seed=3)
    old = mp.prec
    mp.prec = wl.prec
    try:
        seen, missed = set(), []
        for i in range(3):
            for op in wl.block(i):
                if op.prepare:
                    op.prepare()
                result, _, outcome, _ = harness.call_with_deadline(op.run, op.deadline)
                if outcome != "ok":
                    continue
                op.check(result)
                try:
                    op.check(_plant(op.kind, result))
                    missed.append((op.kind, op.stratum))
                except harness.CheckFailed:
                    seen.add(op.kind)
    finally:
        mp.prec = old
    assert not missed
    assert {op.kind for op in wl.block(0)} <= seen


_CLI_PLANTS = [
    (r"^profile-csv$", lambda o: re.sub(r"^([^,]+),([^,]+)(,\d+,\d+,\d+,minimum)$", lambda m: f"{m[1]},{float(m[2]) * 1.01!r}{m[3]}", o, count=1, flags=re.M)),
    (r"^profile-json$", lambda o: re.sub(r'"q": (\d+)', lambda m: f'"q": {int(m[1]) + 1}', o, count=1)),
    (r"^profile-svg$", lambda o: re.sub(r"<path [^>]*/>", "", o, count=1)),
    (r"^profile-text$", lambda o: re.sub(r"piece 0: (\d+)/", lambda m: f"piece 0: {int(m[1]) + 1}/", o)),
    (r"^average-text$", lambda o: re.sub(r"estimate = (\d\.\d{4})", lambda m: f"estimate = {float(m[1]) + 0.001:.4f}", o)),
    (r"^average-json$", lambda o: o.replace('"limsup_estimate": 0.', '"limsup_estimate": 0.1')),
    (r"^average-csv$", lambda o: re.sub(r"^0,0\.", "0,0.1", o, flags=re.M)),
    (r"^hermite-json$", lambda o: re.sub(r'"q": (\d+)', lambda m: f'"q": {int(m[1]) + 1}', o, count=1)),
    (r"^hermite-", lambda o: re.sub(r"(\d+)\s*$", lambda m: str(int(m[1]) + 1), o.rstrip()) + "\n"),
    (r"^capacity-.*-json$", lambda o: re.sub(r'"literal": "([^"]*)"', '"literal": "7/3"', o, count=3)),
    (r"^capacity-.*-text$", lambda o: "f(omega) = 7/3" + o[o.index(" = ", 12):]),
    (r"^packing-json$", lambda o: re.sub(r'"analytic_density": ([\d.e-]+)', lambda m: f'"analytic_density": {float(m[1]) + 0.01!r}', o)),
    (r"^packing-text$", lambda o: re.sub(r"analytic density  = ([\d.e-]+)", lambda m: f"analytic density  = {float(m[1]) + 0.01!r}", o)),
    (r"^render-lattice$", lambda o: re.sub(r"<circle [^>]*/>", "", o)),
    (r"^spectrum-text$", lambda o: re.sub(r"m=\s+1\s", "m=     3 ", o)),
    (r"^spectrum-json$", lambda o: o.replace('"m": 1,', '"m": 3,')),
    (r"^spectrum-csv$", lambda o: re.sub(r"^1,", "3,", o, flags=re.M)),
    (r"^markoff-", lambda o: o.replace(" 5 ", " ").replace("\n5\n", "\n").replace(" 5,", "")),
]


def test_cli_checkers_reject_planted_values():
    wl = workloads.CliWorkload(seed=3)
    for label, argv, code, checker in wl.corpus(0):
        result = workloads.run_cli(argv)
        if code != 0:
            assert wl.verdict(code, checker, (0, "ok\n", "")), label
            continue
        assert wl.verdict(code, checker, result) == "", label
        plant = next(fn for pattern, fn in _CLI_PLANTS if re.search(pattern, label))
        bad = plant(result[1])
        assert bad != result[1], label
        assert wl.verdict(code, checker, (code, bad, "")), label
        assert wl.verdict(code, checker, (1, result[1], "")), label

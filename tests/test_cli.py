"""End-to-end CLI behavior: formats, determinism, round-trips, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "growthcap.cli"]


def run(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, env=env)


# -- capacity --------------------------------------------------------------------


def test_capacity_matches_library():
    from growthcap import PHI, UpperHalfPoint, growth_capacity
    from fractions import Fraction

    r = run("capacity", "--omega", "phi + i/10", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    expected = growth_capacity(UpperHalfPoint(PHI, Fraction(1, 10)))
    assert obj["f"]["literal"] == expected.literal()
    assert abs(obj["f"]["value"] - float(expected)) < 1e-15


def test_capacity_simple_points():
    for omega in ("2i", "i/2"):
        r = run("capacity", "--omega", omega, "--format", "json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["f"]["value"] == 0.5


def test_capacity_text_mentions_reduction():
    r = run("capacity", "--omega", "phi + i/10")
    assert r.returncode == 0
    assert "f(omega)" in r.stdout
    assert "reducing matrix" in r.stdout
    assert "tangent circle" in r.stdout


def test_capacity_parse_error():
    r = run("capacity", "--omega", "phi + i/10 @")
    assert r.returncode == 1
    assert "parse error at position 11" in r.stderr
    assert r.stdout == ""


def test_capacity_requires_upper_half_plane():
    r = run("capacity", "--omega", "phi")
    assert r.returncode == 1
    assert "upper half-plane" in r.stderr


# -- profile ---------------------------------------------------------------------


def test_profile_csv_schema_and_continuity():
    r = run("profile", "--x", "phi", "--format", "csv", "--t-max", "20")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "# schema=v1"
    assert lines[1] == "t,f,piece_index,p,q,kind"
    rows = [ln.split(",") for ln in lines[2:]]
    kinds = {row[5] for row in rows}
    assert kinds == {"sky", "sample", "breakpoint", "minimum"}
    # minima rows carry f = 2 q |q x - p| = 2/lambda_n
    from growthcap import PHI, lambda_n

    for row in rows:
        if row[5] == "minimum":
            q = int(row[4])
            n = {1: 1, 2: 2, 3: 3, 5: 4, 8: 5, 13: 6, 21: 7}[q]
            expected = 2 / float(lambda_n(PHI, n).to_mpf())
            assert math.isclose(float(row[1]), expected, rel_tol=1e-12)
    # breakpoints match the envelope crossings recomputed from scratch
    from growthcap import build_profile
    from mpmath import mp

    prof = build_profile(PHI, 10)
    starts = sorted(
        float(mp.sqrt(p.sq_start.to_mpf())) for p in prof.pieces
        if float(mp.sqrt(p.sq_start.to_mpf())) <= 20
    )
    got = sorted(float(row[0]) for row in rows if row[5] == "breakpoint")
    assert len(got) == len(starts)
    for a, b in zip(got, starts):
        assert math.isclose(a, b, rel_tol=1e-12)


def test_profile_csv_single_x_only():
    r = run("profile", "--x", "phi", "--x", "psi", "--format", "csv")
    assert r.returncode == 1
    assert "one --x" in r.stderr


def test_profile_rejects_rational_x():
    r = run("profile", "--x", "3/4")
    assert r.returncode == 1
    assert "rational input" in r.stderr


def test_profile_svg_three_curves_deterministic(tmp_path):
    args = ("profile", "--x", "phi", "--x", "sqrt(2)-1", "--x", "sqrt(3)-1", "--format", "svg")
    r1, r2 = run(*args), run(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.count("<path") == 3
    assert "2/sqrt(5)" in r1.stdout  # golden guide line present when phi plotted
    r3 = run("profile", "--x", "sqrt(2)-1", "--format", "svg")
    assert "2/sqrt(5)" not in r3.stdout


def test_profile_out_file(tmp_path):
    dest = tmp_path / "prof.csv"
    r = run("profile", "--x", "psi", "--format", "csv", "--out", str(dest))
    assert r.returncode == 0
    assert r.stdout == ""
    assert dest.read_text().startswith("# schema=v1")


@pytest.mark.parametrize("t_max", ["-5", "0", "0.1", "0.5", "nan", "inf"])
def test_profile_rejects_bad_t_max(t_max):
    for fmt in ("text", "csv", "json", "svg"):
        r = subprocess.run(
            CLI + ["profile", "--x", "phi", "--t-max", t_max, "--format", fmt],
            capture_output=True, text=True, timeout=60,
        )
        assert r.returncode == 1, fmt
        assert r.stdout == "", fmt
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, fmt
        assert "t-max must be" in r.stderr, fmt


def test_profile_json_round_trip():
    r = run("profile", "--x", "phi", "--format", "json", "--t-max", "30")
    obj = json.loads(r.stdout)
    assert json.loads(json.dumps(obj)) == obj
    assert obj["profiles"][0]["pieces"][0]["p"] == 2


# -- packing ----------------------------------------------------------------------


def test_packing_within_three_sigma():
    r = run("packing", "--x", "phi", "--y", "1/2", "--samples", "30000", "--format", "json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    p = obj["analytic_density"]
    sigma = math.sqrt(p * (1 - p) / obj["samples"])
    assert abs(obj["empirical_density"] - p) <= 3 * sigma


def test_packing_hexagonal_maximum():
    r = run("packing", "--x", "1/2", "--y", "sqrt(3)/2", "--samples", "200", "--format", "json")
    obj = json.loads(r.stdout)
    assert abs(obj["analytic_density"] - math.pi / (2 * math.sqrt(3))) < 1e-12


def test_packing_seeded_determinism():
    a = run("packing", "--x", "phi", "--y", "1/3", "--samples", "5000", "--seed", "9")
    b = run("packing", "--x", "phi", "--y", "1/3", "--samples", "5000", "--seed", "9")
    c = run("packing", "--x", "phi", "--y", "1/3", "--samples", "5000", "--seed", "10")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_packing_sample_floor():
    r = run("packing", "--x", "phi", "--y", "1/2", "--samples", "99")
    assert r.returncode == 1
    assert "samples" in r.stderr


# -- render-lattice ------------------------------------------------------------------


def test_render_lattice_deterministic_and_uniform_disks():
    args = ("render-lattice", "--x", "phi-1", "--y", "1/20", "--rows", "25")
    r1, r2 = run(*args), run(*args)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    radii = {part.split('"')[0] for part in r1.stdout.split(' r="')[1:]}
    assert len(radii) == 2  # one disk radius + one bud-marker radius


def test_render_lattice_square_grid():
    r = run("render-lattice", "--x", "0", "--y", "1", "--rows", "3")
    assert r.returncode == 0
    assert r.stdout.count("<circle") >= 6


# -- thin wrappers ---------------------------------------------------------------------


def test_hermite_list():
    r = run("hermite", "--x", "sqrt(7)-1", "--n", "10", "--format", "csv")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "# schema=v1"
    assert lines[1] == "n,p,q"
    assert [tuple(map(int, ln.split(","))) for ln in lines[2:]] == [
        (1, 2, 1), (3, 5, 3), (5, 28, 17), (7, 79, 48), (9, 446, 271)
    ]


def test_average_text_shows_closed_form_and_delta():
    r = run("average", "--x", "phi", "--depth", "40")
    assert r.returncode == 0
    assert "0.93040894" in r.stdout
    assert "closed form" in r.stdout and "log(phi)" in r.stdout
    assert "delta" in r.stdout


def test_spectrum_three():
    r = run("spectrum", "--count", "3", "--format", "json")
    obj = json.loads(r.stdout)
    lits = [e["L"]["literal"] for e in obj["entries"]]
    assert lits == ["(0+1*sqrt(5))/1", "(0+2*sqrt(2))/1", "(0+1*sqrt(221))/5"]


def test_markoff_list():
    r = run("markoff", "--limit", "1500", "--format", "json")
    obj = json.loads(r.stdout)
    assert obj["numbers"] == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985, 1325]


# -- config plumbing ---------------------------------------------------------------------


def test_precision_env_and_flag():
    bad = run("capacity", "--omega", "2i", env_extra={"GROWTH_CAPACITY_PRECISION": "32"})
    assert bad.returncode == 1 and "64" in bad.stderr
    good = run("capacity", "--omega", "2i", env_extra={"GROWTH_CAPACITY_PRECISION": "80"})
    assert good.returncode == 0
    flag_wins = run(
        "capacity", "--omega", "2i", "--precision", "128",
        env_extra={"GROWTH_CAPACITY_PRECISION": "32"},
    )
    assert flag_wins.returncode == 0
    garbage = run("capacity", "--omega", "2i", env_extra={"GROWTH_CAPACITY_PRECISION": "lots"})
    assert garbage.returncode == 1 and "GROWTH_CAPACITY_PRECISION" in garbage.stderr


def test_unknown_subcommand_usage_error():
    r = run("frobnicate")
    assert r.returncode == 2
    assert r.stdout == ""


def test_capacity_rejects_svg():
    r = run("capacity", "--omega", "2i", "--format", "svg")
    assert r.returncode == 2


def test_depth_validation_via_cli():
    r = run("average", "--x", "phi", "--depth", "1")
    assert r.returncode == 1
    assert "depth" in r.stderr

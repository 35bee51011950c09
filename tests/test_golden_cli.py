"""Byte-for-byte replay of a fixed CLI corpus against committed golden output.

Each case runs `growthcap.cli.main(argv)` in-process and compares its exit
code and stdout with `tests/golden/<name>.out` and `tests/golden/exit_codes.json`.
Regenerate the golden files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from growthcap.cli import PRECISION_ENV, main

GOLDEN = Path(__file__).with_name("golden")

_X3 = {"phi": "phi", "sqrt7m1": "sqrt(7)-1", "x221": "(11+sqrt(221))/10"}

CORPUS = {}
for _key, _lit in _X3.items():
    for _fmt in ("text", "csv", "json", "svg"):
        CORPUS[f"profile-{_key}-{_fmt}"] = ["profile", "--x", _lit, "--format", _fmt]
CORPUS.update(
    {
        "profile-two-x-json": ["profile", "--x", "phi", "--x", "sqrt(7)-1", "--format", "json"],
        "profile-two-x-svg": ["profile", "--x", "phi", "--x", "(11+sqrt(221))/10", "--format", "svg"],
        "profile-phi-tmax50-text": ["profile", "--x", "phi", "--t-max", "50"],
        "profile-phi-tmax1e20-csv": ["profile", "--x", "phi", "--t-max", "1e20", "--format", "csv"],
        "profile-phi-tmax1e20-json": ["profile", "--x", "phi", "--t-max", "1e20", "--format", "json"],
        "profile-phi-tmax1e20-svg": ["profile", "--x", "phi", "--t-max", "1e20", "--format", "svg"],
        "profile-sqrt7m1-tmax1e20-json": ["profile", "--x", "sqrt(7)-1", "--t-max", "1e20", "--format", "json"],
        "profile-phi-tmax1e80-text": ["profile", "--x", "phi", "--t-max", "1e80"],
        "profile-phi-tmax1e80-json": ["profile", "--x", "phi", "--t-max", "1e80", "--format", "json"],
        "hermite-text": ["hermite", "--x", "sqrt(7)-1", "--n", "10"],
        "hermite-csv": ["hermite", "--x", "(11+sqrt(221))/10", "--n", "25", "--format", "csv"],
        "hermite-json": ["hermite", "--x", "phi", "--n", "12", "--format", "json"],
        "capacity-exact-text": ["capacity", "--omega", "phi + i/10"],
        "capacity-exact-json": ["capacity", "--omega", "phi + i/10", "--format", "json"],
        "capacity-decimal-text": ["capacity", "--omega", "0.3 + 0.9i"],
        "capacity-decimal-json": ["capacity", "--omega", "0.3 + 0.9i", "--format", "json"],
        "packing-text": ["packing", "--x", "phi", "--y", "1/3", "--samples", "2000", "--seed", "7"],
        "packing-json": ["packing", "--x", "sqrt(2)-1", "--y", "1/5", "--samples", "2000", "--format", "json"],
        "render-lattice-svg": ["render-lattice", "--x", "phi-1", "--y", "1/20", "--rows", "25"],
        "spectrum-text": ["spectrum", "--count", "8"],
        "spectrum-csv": ["spectrum", "--count", "6", "--format", "csv"],
        "spectrum-json": ["spectrum", "--count", "4", "--format", "json"],
        "markoff-text": ["markoff", "--limit", "1500"],
        "markoff-csv": ["markoff", "--limit", "500", "--format", "csv"],
        "markoff-json": ["markoff", "--limit", "3000", "--format", "json"],
    }
)
for _depth, _lit in ((24, "phi"), (40, "(11+sqrt(221))/10"), (160, "psi")):
    for _fmt in ("text", "csv", "json"):
        CORPUS[f"average-d{_depth}-{_fmt}"] = ["average", "--x", _lit, "--depth", str(_depth), "--format", _fmt]


def run_case(argv) -> tuple:
    """(exit code, stdout) of one in-process invocation."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_corpus_matches_golden_index():
    assert sorted(_exit_codes()) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_byte_identical(name, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    code, out = run_case(CORPUS[name])
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")


def _write() -> None:
    os.environ.pop(PRECISION_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CORPUS.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()

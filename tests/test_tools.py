"""Smoke test of the output-comparison script, ``tools/bitwise.py``."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bitwise.py"


def _bitwise():
    spec = importlib.util.spec_from_file_location("bitwise", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bitwise_two_saves_compare_equal(tmp_path, capsys, monkeypatch) -> None:
    """Two saves of the small set hold the same arrays, bit for bit, and
    leave ``KCUT_THREADS`` as they found it; among them, record counts
    swept by bottom subtrees and the CF exponent with the pass budget
    small.  One changed value or dtype is counted,
    and ``compare`` then exits 1."""
    bitwise = _bitwise()
    monkeypatch.delenv("KCUT_THREADS", raising=False)
    a, b, c = (str(tmp_path / f"{name}.npz") for name in "abc")
    assert bitwise.main(["save", a, "--small"]) == 0
    assert bitwise.main(["save", b, "--small"]) == 0
    assert "KCUT_THREADS" not in os.environ
    assert bitwise.main(["compare", a, b]) == 0
    with np.load(a) as saved:
        arrays = dict(saved)
    assert any(name.startswith("xi-2-") for name in arrays)
    assert any(name.startswith("edge-2-split-") for name in arrays)
    assert any(name.startswith("experiment-") for name in arrays)
    assert any(name.startswith("exponent-2-4096-") for name in arrays)
    first, second = sorted(name for name in arrays if name.startswith("node-"))[:2]
    arrays[first] = arrays[first].copy()
    arrays[first].flat[0] += 1
    arrays[second] = arrays[second].astype(np.int32)
    np.savez(c, **arrays)
    capsys.readouterr()
    assert bitwise.main(["compare", a, c]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{len(arrays)} arrays, 2 differ"
    assert sorted(lines[1:]) == sorted([
        f"  {first}: abs 1 rel {1 / abs(arrays[first].flat[0] - 1):.3g}",
        f"  {second}: int64{arrays[second].shape} against int32{arrays[second].shape}",
    ])


def test_bitwise_describes_gaps_per_csv_column() -> None:
    """A CSV text is compared per column: only the columns that differ
    are named, each with its largest absolute and relative gap."""
    bitwise = _bitwise()
    a = np.array("n,mean,gap\n63,2.5,0.5\n255,4.0,nan\n")
    b = np.array("n,mean,gap\n63,2.5,0.5\n255,4.000000001,nan\n")
    assert bitwise.describe(a, b) == "mean abs 1e-09 rel 2.5e-10"
    c = np.array([1.0, -2.0, 0.0])
    assert bitwise.describe(c, np.array([1.0, -2.5, 0.0])) == "abs 0.5 rel 0.25"

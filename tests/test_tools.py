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
    leave ``KCUT_THREADS`` as they found it; one changed value or dtype
    is counted, and ``compare`` then exits 1."""
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
    assert any(name.startswith("experiment-") for name in arrays)
    first, second = sorted(name for name in arrays if name.startswith("node-"))[:2]
    arrays[first] = arrays[first].copy()
    arrays[first].flat[0] += 1
    arrays[second] = arrays[second].astype(np.int32)
    np.savez(c, **arrays)
    capsys.readouterr()
    assert bitwise.main(["compare", a, c]) == 1
    assert capsys.readouterr().out.startswith(f"{len(arrays)} arrays, 2 differ")

"""SciPy is imported where it is called, never at module load.

A process that serves stored signatures (a query server, a cluster
backend, a durable ``FerretSystem``) never segments an image or
computes a shape descriptor, so it must not pay SciPy's import time or
resident set.  Each check runs in a fresh interpreter: this test
process may already hold SciPy from other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{_SRC}{os.pathsep}{existing}" if existing else _SRC
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("module", [
    "repro.datatypes.image",
    "repro.datatypes.shape",
    "repro.server.server",
    "repro.cluster.backend",
    "repro.system",
])
def test_import_leaves_scipy_unloaded(module):
    result = _run(f"""
        import sys
        import {module}
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
    """)
    assert result.returncode == 0, result.stderr


def test_extraction_loads_scipy_on_first_call():
    """Segmentation and the SHD descriptor still work from a cold
    process, and only then bring SciPy in."""
    result = _run("""
        import sys
        import numpy as np
        from repro.datatypes.image import segment_image
        from repro.datatypes.shape import shd_descriptor, shell_decomposition

        image = np.zeros((12, 12, 3))
        image[:, 6:] = 0.9
        labels = segment_image(image, min_region_fraction=0.0)
        assert sorted(np.unique(labels)) == [0, 1], labels
        assert "scipy.ndimage" in sys.modules

        grid = np.zeros((8, 8, 8), dtype=bool)
        grid[1:7, 1:7, 1:7] = True
        descriptor = shd_descriptor(shell_decomposition(grid))
        assert descriptor.shape == (32 * 17,) and descriptor.sum() > 0
        assert "scipy.special" in sys.modules
    """)
    assert result.returncode == 0, result.stderr

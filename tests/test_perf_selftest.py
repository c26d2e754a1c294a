"""The benchmark harness self-test still runs against the package.

``perf/`` reaches the program only through names it binds from outside
(``pipeline.shapley_mc``, ``CafaConfig(n_perms=...)``, the report writers,
...), so a change under ``src/`` that renames or drops one of them breaks the
benchmark without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perf_selftest_passes():
    # selftest.py puts this checkout's src/ first on its own path
    proc = subprocess.run([sys.executable, str(ROOT / "perf" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout

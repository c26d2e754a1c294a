"""Importing the package leaves the network stack unloaded."""

import os
import subprocess
import sys
import textwrap

# xml.sax.saxutils imports urllib.request, which loads all four.
NETWORK_MODULES = ("urllib.request", "http.client", "ssl", "email")

_IMPORT = textwrap.dedent("""
    import sys
    import cafa, cafa.reports, cafa.cli
    loaded = [m for m in {mods!r} if m in sys.modules]
    sys.exit(f"importing cafa loaded {{loaded}}" if loaded else 0)
""").format(mods=NETWORK_MODULES)


def test_importing_the_package_loads_no_network_module():
    import cafa

    src = os.path.dirname(os.path.dirname(os.path.abspath(cafa.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

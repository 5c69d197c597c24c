"""The fixed cost of a CLI process: importing ``hopfgalois.cli`` loads
every layer of the package, and no standard-library module that the
package would load only for convenience."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# dataclasses pulls in inspect, ast, dis and tokenize; the CLI needs
# traceback on its internal-error path only, and typing not at all
AVOIDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "traceback", "typing")


def bench_layers():
    """The layer modules that the benchmark's tracer wraps, by full name."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {"%s.%s" % (spans.PACKAGE, layer) for layer in spans.TARGETS}


def test_cli_import_loads_every_layer_and_no_convenience_module():
    # -S skips site, whose .pth files may import typing themselves
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, hopfgalois.cli; print('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    layers = bench_layers()
    assert len(layers) == 11
    assert layers <= loaded
    assert [m for m in AVOIDED if m in loaded] == []

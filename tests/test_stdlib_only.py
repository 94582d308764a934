"""The runtime is pure standard library: importing promex loads nothing else."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import promex

PACKAGE_DIR = Path(promex.__file__).resolve().parent

# modules loaded at startup (site hooks among them) are not promex's doing
SCRIPT = """
import importlib, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print("\\n".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    modules = sorted(f"promex.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
    assert "promex.cli" in modules
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *modules],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(result.stdout.split())
    assert "promex" in loaded
    foreign = sorted(loaded - {"promex"} - set(sys.stdlib_module_names))
    assert foreign == [], f"non-stdlib modules imported by promex: {foreign}"

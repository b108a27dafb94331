"""The runtime is stdlib-only: every absolute import in the package names
either the package itself or a standard-library module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "windsent"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_windsent(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = {name for name in names
               if name.split(".")[0] not in sys.stdlib_module_names | {"windsent"}}
    assert not outside, f"{path.name} imports non-stdlib modules: {sorted(outside)}"


def test_cli_import_loads_no_heavy_modules():
    # xml.sax.saxutils would bring in urllib.request, http.client, ssl and
    # email; dataclasses brings in inspect, which brings in ast, dis and tokenize
    heavy = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
             "dataclasses", "inspect")
    code = ("import sys; before = set(sys.modules); import windsent.cli; "
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    added = result.stdout.split()
    assert "windsent.cli" in added
    assert not [name for name in added
                if any(name == h or name.startswith(h + ".") for h in heavy)]

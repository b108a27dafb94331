"""The runtime is stdlib-only: every absolute import in the package names
either the package itself or a standard-library module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "windsent"
# the interpreter's own SHA-256 module is _sha256 on Python 3.10 and 3.11 and
# _sha2 from 3.12 on; sys.stdlib_module_names lists only the running one's
SHA256_MODULES = {"_sha256", "_sha2"}
STDLIB = sys.stdlib_module_names | {"windsent"}
if STDLIB & SHA256_MODULES:
    STDLIB |= SHA256_MODULES
# xml.sax.saxutils would bring in urllib.request, http.client, ssl and email;
# dataclasses brings in inspect, which brings in ast, dis and tokenize;
# hashlib brings in _hashlib, which maps OpenSSL's libcrypto
HEAVY = ("xml.sax", "urllib.request", "http.client", "ssl", "email",
         "dataclasses", "inspect", "_hashlib")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_windsent(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = {name for name in names if name.split(".")[0] not in STDLIB}
    assert not outside, f"{path.name} imports non-stdlib modules: {sorted(outside)}"


def heavy_modules(names):
    return [name for name in names
            if any(name == h or name.startswith(h + ".") for h in HEAVY)]


def test_cli_import_loads_no_heavy_modules():
    code = ("import sys; before = set(sys.modules); import windsent.cli; "
            "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    added = result.stdout.split()
    assert "windsent.cli" in added
    assert not heavy_modules(added)


def test_analyze_run_loads_no_heavy_modules(tmp_path):
    corpus = tmp_path / "one.jsonl"
    corpus.write_text('{"id": "1", "text": "great clean wind turbines"}\n', encoding="utf-8")
    code = ("import sys; from windsent.cli import main; "
            f"code = main(['analyze', '--plots', '--input', {str(corpus)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(code, *sorted(sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    status, *loaded = result.stdout.splitlines()[-1].split()  # after the run's summary
    assert status == "0"
    assert not heavy_modules(loaded)
    # a full run loads every module, so one that nothing imports any more
    # fails here instead of lingering
    assert {name for name in loaded if name.startswith("windsent.")} == \
        {f"windsent.{path.stem}" for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}

"""Every module ``src/repro`` imports is declared as a runtime dependency.

An import of a package that ``setup.py`` does not list works wherever that
package happens to be installed and fails with ``ModuleNotFoundError``
everywhere else.  This scan reads every ``import`` and ``from`` statement in
the package, including the ones inside functions, and checks the top-level
module against the standard library and ``install_requires``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared_requirements() -> set[str]:
    """Distribution names in ``setup.py``'s ``install_requires``."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            specs = ast.literal_eval(node.value)
            return {
                re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
                for spec in specs
            }
    raise AssertionError("setup.py has no install_requires")


def _imported_top_level_modules() -> dict[str, list[str]]:
    """Top-level module name -> the files that import it (absolute imports)."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], []).append(
                    str(path.relative_to(ROOT))
                )
    return found


def test_src_imports_only_declared_dependencies():
    allowed = {"repro"} | set(sys.stdlib_module_names) | _declared_requirements()
    undeclared = {
        module: files
        for module, files in _imported_top_level_modules().items()
        if module not in allowed
    }
    assert not undeclared, (
        f"src/repro imports modules setup.py does not declare: {undeclared}"
    )

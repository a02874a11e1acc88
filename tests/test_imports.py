"""Every name a module of the package imports is used in that module; the
package's ``__init__`` imports its public API for re-export and is exempt."""
import ast
from pathlib import Path

import burghelea

PACKAGE = Path(burghelea.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, Optional\nx: Optional[int]\n") == [
        "line 1: os", "line 2: Any"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}

"""Module boundaries: no module of ziskit imports another one's private names."""

import ast
from pathlib import Path

import ziskit

SRC = Path(ziskit.__file__).parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        here = _module_name(path)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.level or node.module is None:
                continue
            if node.module.split(".")[0] != "ziskit" or node.module == here:
                continue
            offenders += [f"{here}:{node.lineno} imports {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders

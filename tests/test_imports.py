"""Module boundaries and dead code.

No module of ziskit imports another one's private names, and every function,
class and method of ziskit is named in `src/` or `perfbench/` besides its own
definition. Every defaulted field of a configuration dataclass, and every
defaulted parameter of a function or method, is set by some call in `src/` or
`perfbench/`.
"""

import ast
import dataclasses
import importlib
import re
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


def _definitions(path: Path):
    """(name, owner) of the module-level functions and classes of a file, and of
    the methods of those classes that no base class defines; the owner of a
    method is its class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = importlib.import_module(_module_name(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, module
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name)
            yield from ((item.name, cls) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not any(hasattr(base, item.name) for base in cls.__mro__[1:]))


def _names_used(path: Path) -> set[str]:
    """Identifiers a file reads or imports, and those a string spells out whole
    (perfbench names the functions it wraps as `module`, `attr` strings)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            used.update(node.value.split("."))
    return used


def _callers():
    return [path for part in ("src", "perfbench") for path in (SRC.parents[1] / part).rglob("*.py")]


def test_every_definition_is_named_outside_its_def():
    used = set().union(*(_names_used(path) for path in _callers()))
    unused = [f"{owner.__name__}.{name}" for path in sorted(SRC.rglob("*.py"))
              for name, owner in _definitions(path)
              if name not in used and not name.startswith("__")]
    assert not unused, unused


def _calls_by_callee() -> dict[str, list[ast.Call]]:
    """The calls in `src/` and `perfbench/`, keyed by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in _callers():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return calls


def test_every_config_field_is_set_by_a_caller():
    """A field that keeps its default in every call is a constant, not a setting."""
    calls = _calls_by_callee()
    unset = []
    for path in sorted(SRC.rglob("*.py")):
        module = importlib.import_module(_module_name(path))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Config", "Profile", "Params"))):
                continue
            fields = dataclasses.fields(getattr(module, node.name))
            set_by_calls = {name for call in calls.get(node.name, [])
                            for name in (*(f.name for f in fields[:len(call.args)]),
                                         *(kw.arg for kw in call.keywords))}
            unset += [f"{node.name}.{f.name}" for f in fields if f.name not in set_by_calls
                      and (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)]
    assert not unset, f"{len(unset)} fields keep their default in every call: {unset}"


def _defaulted_parameters(path: Path):
    """(qualified name, callee, positional index or None, parameter) of every
    defaulted parameter of the module-level functions and class methods of a
    file. The callee of `__init__` is its class. The index counts a call's
    positional arguments, which pass no `self` or `cls`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for func in node.body if owner else [node]:
            if not isinstance(func, ast.FunctionDef):
                continue
            name = f"{owner}.{func.name}" if owner else func.name
            callee = owner if func.name == "__init__" else func.name
            positional = [*func.args.posonlyargs, *func.args.args]
            bound = owner is not None
            for i in range(len(positional) - len(func.args.defaults), len(positional)):
                yield name, callee, i - bound, positional[i].arg
            for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
                if default is not None:
                    yield name, callee, None, arg.arg


def _passes(call: ast.Call, index: int | None, param: str) -> bool:
    """Whether `call` may set the parameter, by keyword or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_by_a_caller():
    """A parameter that keeps its default in every call serves no caller."""
    calls = _calls_by_callee()
    unset = [f"{_module_name(path)}.{name}.{param}" for path in sorted(SRC.rglob("*.py"))
             for name, callee, index, param in _defaulted_parameters(path)
             if not any(_passes(call, index, param) for call in calls.get(callee, []))]
    assert not unset, f"{len(unset)} parameters keep their default in every call: {unset}"

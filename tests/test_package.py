import ast
from pathlib import Path
from types import ModuleType

import pairedsurv


def test_star_import_binds_no_module():
    assert [name for name in pairedsurv.__all__
            if isinstance(getattr(pairedsurv, name), ModuleType)] == []
    namespace = {}
    exec("from pairedsurv import *", namespace)
    assert set(pairedsurv.__all__) <= set(namespace)
    assert "data" not in namespace
    # and no object under two names
    names_of = {}
    for name in pairedsurv.__all__:
        names_of.setdefault(id(getattr(pairedsurv, name)), []).append(name)
    assert [names for names in names_of.values() if len(names) > 1] == []


def test_no_import_inside_a_function_and_no_cycle_through_sensitivity():
    src = Path(pairedsurv.__file__).parent
    nested = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
    # sensitivity owns every worst-case tail; overall and closed import it
    tree = ast.parse((src / "sensitivity.py").read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts.update(alias.name.split("."))
    assert "scores" in parts
    assert not parts & {"overall", "closed"}

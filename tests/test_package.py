import ast
import inspect
import re
import warnings
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


def test_only_parallel_starts_threads():
    # one module holds the CPU-count rule and the rule that every thread
    # ends with the call that started it
    src = Path(pairedsurv.__file__).parent
    importers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "concurrent") for name in names):
                importers.add(path.name)
    assert importers == {"_parallel.py"}


ROOT = Path(pairedsurv.__file__).resolve().parents[2]


def _python_blocks(markdown):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.S)


def _user_sources():
    """The CLI, the demos, README's python blocks and the benchmark: the code
    that reaches the library from outside it and its tests.  README's prose
    names what it documents, which is not a use."""
    paths = [ROOT / "src" / "pairedsurv" / "cli.py",
             *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    sources["README.md"] = "".join(_python_blocks((ROOT / "README.md").read_text(encoding="utf-8")))
    return sources


def test_public_surface_is_what_users_reach():
    sources = _user_sources()
    public = {name: getattr(pairedsurv, name) for name in pairedsurv.__all__}
    functions = {name: obj for name, obj in public.items() if inspect.isfunction(obj)}
    classes = {name for name, obj in public.items() if inspect.isclass(obj)}
    assert set(functions) | classes == set(public)
    # every function is named where users call the library
    assert [name for name in functions
            if not any(re.search(rf"\b{name}\b", text) for text in sources.values())] == []
    # every class is a type those functions return or take (annotations are
    # strings under ``from __future__ import annotations``)
    typed = set()
    for fn in functions.values():
        for annotation in fn.__annotations__.values():
            typed.update(re.findall(r"\w+", str(annotation)))
    assert sorted(classes - typed) == []
    # the demos and README's quick start import only public names
    snippets = [text for name, text in sources.items()
                if name.endswith(".py") and (ROOT / "demos" / name).is_file()]
    snippets.append(sources["README.md"])
    imported = set()
    for snippet in snippets:
        for node in ast.walk(ast.parse(snippet)):
            if isinstance(node, ast.ImportFrom) and node.module == "pairedsurv":
                imported.update(alias.name for alias in node.names)
    assert imported and sorted(imported - set(public)) == []


def test_readme_python_blocks_run_without_warning():
    blocks = _python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, "README.md", "exec"), {})


def _rule_sites(path):
    """Where ``path`` defines a ``check_*`` or ``as_grid`` name, imports
    ``numbers`` or catches ``OverflowError``."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        sites += [f"defines {name}" for name in names
                  if name.startswith("check_") or name == "as_grid"]
        if isinstance(node, ast.Import):
            sites += ["imports numbers" for alias in node.names if alias.name == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            sites.append("imports numbers")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            sites += ["catches OverflowError" for name in ast.walk(node.type)
                      if isinstance(name, ast.Name) and name.id == "OverflowError"]
    return sites


def test_only_errors_defines_an_input_rule():
    src = Path(pairedsurv.__file__).parent
    sites = {path.name: _rule_sites(path) for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in sites.items()
            if found and name != "errors.py"} == {}
    assert "catches OverflowError" in sites["errors.py"]
    assert "defines as_grid" in sites["errors.py"]
    # the span recorder counts every public mvnorm function as an MVN integration
    tree = ast.parse((src / "mvnorm.py").read_text(encoding="utf-8"))
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")] == ["mvn_cdf"]


def _call_sites(is_site):
    """(file, innermost function) of every call in the package for which
    ``is_site(call)`` holds, in file order."""
    src = Path(pairedsurv.__file__).parent
    sites = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost function (ast.walk visits outer ones first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner.update((node, getattr(fn, "name", "<lambda>")) for node in ast.walk(fn))
        sites += [(path.name, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and is_site(node)]
    return sites


def _calls(node, name) -> bool:
    return name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_normal_tail_in_sensitivity():
    # every column tail, of a score test or of a max test's columns, is the
    # one helper's, so a one-column max test is its score test by construction
    assert {owner for path, owner in _call_sites(lambda call: _calls(call, "ndtr"))
            if path == "sensitivity.py"} == {"_normal_tails", "_pair_tails"}


def test_mvn_cdf_has_one_call_site():
    # every integration runs through the one max test, so the span
    # recorder's mvnorm.* metrics see it, and no second max path hides
    assert _call_sites(lambda call: _calls(call, "mvn_cdf")) == \
        [("sensitivity.py", "_max_test_rows")]


def _looped_calls(module, name) -> list:
    """Whether each call of ``name`` in a package module sits in a loop or
    a comprehension."""
    tree = ast.parse((Path(pairedsurv.__file__).parent / module).read_text(encoding="utf-8"))
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    looped = {node for loop in ast.walk(tree) if isinstance(loop, loops)
              for node in ast.walk(loop)}
    return [node in looped for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _calls(node, name)]


def test_closed_test_makes_one_max_test_call():
    # the step-down subsets are the rows of one masked max test, so no call
    # sits in a loop or a comprehension
    assert _looped_calls("closed.py", "_max_test_rows") == [False]


def test_max_test_takes_its_correlations_in_one_pass():
    # every straddled row's correlations come from one product pass over D,
    # which public correlations shares, not from a per-row copy of columns
    assert sorted(_call_sites(lambda call: _calls(call, "_correlation_rows"))) == \
        [("sensitivity.py", "_max_test_rows"), ("sensitivity.py", "correlations")]
    assert _looped_calls("sensitivity.py", "_correlation_rows") == [False, False]
    assert ("sensitivity.py", "_max_test_rows") not in \
        _call_sites(lambda call: _calls(call, "correlations"))


def test_no_library_max_test_reduces_its_matrix_again():
    # the raw-array entry point takes the pair sums again; every library max
    # test reads the sums its matrix or block already holds
    assert _call_sites(lambda call: _calls(call, "_max_test_from_columns")) == []


def test_thread_sites():
    # each call site of map_ranges, the one place threads start, came with a
    # measured gain on two cores (recorded in _parallel's docstring)
    assert sorted(_call_sites(lambda call: _calls(call, "map_ranges"))) == [
        ("km.py", "_event_index"), ("mvnorm.py", "_integrand_means"),
        ("scores.py", "_difference_stack"), ("sensitivity.py", "pvalue_montecarlo"),
        ("simulate.py", "_simulate")]


def test_degenerate_column_warning_has_one_call_site():
    # every dropped-column report, of a matrix, a study or a design
    # sensitivity, goes through one helper and so keeps one wording
    assert _call_sites(lambda call: _calls(call, "warn") and any(
        getattr(node, "id", None) == "DegenerateColumnWarning" for node in ast.walk(call))) == \
        [("overall.py", "_warn_degenerate")]


def test_no_line_longer_than_100_characters():
    root = Path(__file__).resolve().parents[1]
    long = [f"{path.relative_to(root)}:{n}"
            for folder in ("src", "tests", "demos")
            for path in sorted((root / folder).rglob("*"))
            if path.suffix in (".py", ".cfg")
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []

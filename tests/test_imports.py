"""Every name a jsrkit module or test imports is used in it or re-exported,
every name a module exports exists there once, every private top-level
name of a module is read somewhere in the package, every function reads
each of its parameters, importing a module loads nothing beyond the
stdlib and numpy, only core compares a word count with a word cap, the
CLI passes its cap to every call that takes one, and only
TheoremReport.verdict decides a verdict."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "jsrkit"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if "__all__" in p.read_text()],
    ids=lambda p: p.name,
)
def test_all_names_resolve_once(path):
    # unused_imports counts __all__ names as used, so a stale entry would
    # hide an unused import
    module = importlib.import_module(
        "jsrkit" if path.stem == "__init__" else f"jsrkit.{path.stem}"
    )
    names = module.__all__
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if not hasattr(module, n)] == []


def module_private_names(tree: ast.Module) -> set[str]:
    """Names like ``_x`` (not dunders) that a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_no_dead_private_helpers():
    # a private module-level name nothing in the package reads is dead code
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    dead = [
        f"{name}: {helper}"
        for name, tree in sorted(trees.items())
        for helper in sorted(module_private_names(tree) - used)
    ]
    assert dead == []


def unread_parameters(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter, other than self and cls,
    that its function's body never reads as a name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found.extend(
            (name, a.arg)
            for a in params
            if a.arg not in {"self", "cls"} and a.arg not in read
        )
    return found


def test_every_parameter_is_read():
    # a parameter the body never reads is a knob that changes nothing
    unread = [
        f"{path.stem}.{func}: {param}"
        for path in sorted(SRC.glob("*.py"))
        for func, param in unread_parameters(
            ast.parse(path.read_text(), filename=str(path))
        )
    ]
    assert unread == []


def import_time_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level package) of every import that runs when the module
    is imported: all but those inside a function body."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside jsrkit
            found.append((node.lineno, "jsrkit" if node.level else node.module.split(".")[0]))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_import_path_is_stdlib_and_numpy(path):
    # every CLI command pays for what its modules import at load time;
    # heavier dependencies are imported inside the function that needs them
    allowed = set(sys.stdlib_module_names) | {"numpy", "jsrkit"}
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [
        f"{path.name}:{line}: {name}"
        for line, name in import_time_modules(tree)
        if name not in allowed
    ] == []


def word_cap_comparisons(tree: ast.Module) -> list[str]:
    """The top-level function around each comparison with ``word_cap``, as a
    name or an attribute, among its operands."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                getattr(x, "id", getattr(x, "attr", None)) == "word_cap"
                for x in (node.left, *node.comparators)
            ):
                found.append(getattr(top, "name", "<module>"))
    return found


def takes_word_cap(obj) -> bool:
    try:
        return "word_cap" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature, as for exception classes
        return False


def test_cli_passes_the_cap_to_every_budgeted_call():
    # a command that left out word_cap would run under the default cap
    # whatever --cap said
    from jsrkit import cli

    checked, missing = set(), []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = getattr(cli, node.func.id, None)
            if getattr(target, "__module__", "").startswith("jsrkit") and takes_word_cap(target):
                checked.add(node.func.id)
                if "word_cap" not in [k.arg for k in node.keywords]:
                    missing.append(f"cli.py:{node.lineno}: {node.func.id}")
    assert missing == []
    assert {"JsrConfig", "check_bg_el", "check_polbd", "check_ultra_boca"} <= checked


def test_one_rule_decides_every_word_budget():
    # core.budget_depth and core.check_budget compare a word count with the
    # cap; siegel_combination's count is of sums and neighbour cells, not words
    found = [
        f"{path.stem}.{func}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "core.py"
        for func in word_cap_comparisons(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == ["certificates.siegel_combination"]


def definitions(tree: ast.Module):
    """(name, node) for each top-level statement, and ``Class.name`` for
    each statement of a class body."""

    def name(node) -> str:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        return getattr(node, "name", None) or getattr(targets[0], "id", "<module>")

    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{name(n)}", n) for n in top.body)
        else:
            yield name(top), top


def test_one_rule_decides_every_verdict():
    # a checker reports its numbers and TheoremReport.verdict reads the
    # verdict off them; the CLI only maps verdicts to exit codes
    members = {"CONFIRMED", "REFUTED", "INCONCLUSIVE"}
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, node in definitions(ast.parse(path.read_text(), filename=str(path)))
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and getattr(n.value, "id", None) == "Verdict"
        and n.attr in members
    }
    assert found == {"certificates.TheoremReport.verdict", "cli._VERDICT_EXIT"}

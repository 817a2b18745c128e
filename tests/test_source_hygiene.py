"""Static checks on the package source that no installed linter makes."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "biotbench"
TESTS = SOURCE.parent.parent / "tests"
PERFBENCH = SOURCE.parent.parent / "perfbench"
#: (module, name) imported only so that code outside the package can bind it:
#: perfbench wraps ``stepper.splu``, which nothing in the package calls;
#: ROADMAP item 1 moves that binding and drops both
UNREAD_ALLOWED = {("stepper", "splu")}
#: public names that no package module reads and only tests read, each kept for a reason
TEST_ONLY_ALLOWED = {
    "tau_bound_diagnostic": "the step-size bound that ROADMAP item 3 step 3 records",
    "coupling_diagnostic": "the weak-coupling indicator of criterion 8 and ROADMAP item 3",
    "p_error_time_integrated": "the paper's time-integrated pressure error",
}


def _unread_imports(path):
    """The names a module's imports bind that no expression of the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_module_reads_each_name_it_imports():
    # __init__ imports to re-export, so it is the one module not checked
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unread = {(path.stem, name) for path in modules for name in _unread_imports(path)}
    assert unread == UNREAD_ALLOWED


def _private_definitions(tree):
    """The private names a module defines at its top level: functions, classes, constants."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def _names_read(tree):
    """Every name a module reads, bare or as an attribute of another object."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_private_module_level_name_is_read_somewhere_in_the_package():
    # a private name is the module's own business, so one that no module
    # reads is left over from code that is gone
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    assert len(trees) > 5
    read = set().union(*map(_names_read, trees.values()))
    unread = {(module, name) for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in read}
    assert unread == set()


def _public_definitions(tree):
    """The public functions and classes a module defines at its top level, and their methods."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined.update(item.name for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name for name in defined if not name.startswith("_")}


def _names_read_from_outside(path):
    """The names a file outside the package reads, counting strings as names:
    perfbench binds and ``monkeypatch`` replaces an attribute by its name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return _names_read(tree) | {node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_no_public_name_is_read_only_by_tests():
    """A public function, class or method that only tests read is a wrapper
    to delete or a name to put on the allow-list with its reason.

    The check matches names, not bindings: a module function that shares its
    name with an attribute the package reads (as a module-level ``norm``
    would share one with ``NormCalculator.norm``) counts as read, so it is
    not seen.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    # __init__ only re-exports, so what it names is not read by the package
    read = set().union(*(_names_read(tree) for module, tree in trees.items()
                         if module != "__init__"))
    # the allow-list above names its entries, so this file is not a reader
    by_tests = set().union(*(_names_read_from_outside(path) for path in TESTS.glob("*.py")
                             if path.name != Path(__file__).name))
    by_perfbench = set().union(*map(_names_read_from_outside, PERFBENCH.glob("*.py")))
    assert len(trees) > 5 and by_tests and by_perfbench
    read_elsewhere = read | by_perfbench
    test_only = {name for tree in trees.values() for name in _public_definitions(tree)
                 if name in by_tests and name not in read_elsewhere}
    assert test_only == set(TEST_ONLY_ALLOWED)

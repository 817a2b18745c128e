"""Static checks on the package source that no installed linter makes."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "biotbench"
#: (module, name) imported only so that code outside the package can bind it:
#: perfbench wraps ``stepper.splu``, which nothing in the package calls;
#: ROADMAP item 1 moves that binding and drops both
UNREAD_ALLOWED = {("stepper", "splu")}


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

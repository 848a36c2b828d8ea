"""Rules on the package source itself."""

import ast
from pathlib import Path

import quivertangle


def test_no_assert_in_src():
    # python -O strips assert statements, so a check in src/ must raise
    package = Path(quivertangle.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_one_refusal_path():
    # every usage error after parsing is a ValueError that leaves
    # through cli.main, the one caller of parser.error in src/
    package = Path(quivertangle.__file__).parent
    found = [f"{path.stem}.{top.name}"
             for path in sorted(package.glob("*.py"))
             for top in ast.parse(path.read_text(), str(path)).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "error"]
    assert found == ["cli.main"], found


# the one name no src/ code reads that stays on purpose: the version
UNREAD_ALLOWED = {"__init__.__version__"}


def test_every_src_definition_is_read_in_src():
    # a top-level function, class, method or constant that only tests
    # read belongs in the tests; dunder methods are called implicitly.
    # A bare name is a read only in its defining module or in a module
    # that imports it with `from .module import name`, so a parameter
    # or local of the same name elsewhere does not count; an attribute
    # read counts in any module
    package = Path(quivertangle.__file__).parent
    defined, names, attrs = [], set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(path.stem, n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(imported.get(node.id, (path.stem, node.id)))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    assert len(defined) > 100
    unread = {f"{owner}.{name}" for owner, name in defined
              if name not in attrs
              and (owner.split(".")[0], name) not in names}
    assert unread == UNREAD_ALLOWED

"""Rules on the package source itself."""

import ast
import os
import re
import subprocess
import sys
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
    # A top-level name is read only outside its own definition, so a
    # recursion alone does not count; by a bare name only in its
    # defining module or in a module that imports it with `from .module
    # import name`, so a parameter or local of the same name elsewhere
    # does not count, or as an attribute of its module bound by `from .
    # import module`, such as quiverstate.MAX_VERTICES; an attribute of
    # any other object does not count.  A method is read by an attribute
    # read of its name in any module
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
        modules = {alias: name for alias, (module, name) in imported.items()
                   if module is None}
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id != own):
                    names.add(imported.get(node.id, (path.stem, node.id)))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    attrs.add(node.attr)
                    if (isinstance(node.value, ast.Name)
                            and node.value.id in modules):
                        names.add((modules[node.value.id], node.attr))
    assert len(defined) > 100
    unread = {f"{owner}.{name}" for owner, name in defined
              if (owner.split(".")[0], name) not in names
              and ("." not in owner or name not in attrs)}
    assert unread == UNREAD_ALLOWED


def _package_imports(tree):
    """The package modules a module's source imports from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in ([node.module] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names]):
                if name and name.startswith("quivertangle."):
                    found.add(name.split(".")[1])
    return found


# the one reader of another module's private names on purpose: the knot
# route steps the packed state through the quiverstate kernel
PRIVATE_READS_ALLOWED = {f"knotpipeline: quiverstate.{name}" for name in (
    "_absorb", "_gather", "_ones", "_trivial", "_twist", "_unpacked")}


def test_modules_read_no_private_name_of_another_module():
    # a format a module keeps private is known only there: no module
    # imports a _-prefixed name of another package module, or reads one
    # as an attribute of a module bound by `from . import module`, but
    # those PRIVATE_READS_ALLOWED names
    found = set()
    for path in sorted(Path(quivertangle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1]
        modules = {alias.asname or alias.name: alias.name
                   for node in imports if node.module is None
                   for alias in node.names}
        found |= {f"{path.stem}: {node.module}.{alias.name}"
                  for node in imports if node.module
                  for alias in node.names if alias.name.startswith("_")}
        found |= {f"{path.stem}: {modules[node.value.id]}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr.startswith("_")}
    assert found == PRIVATE_READS_ALLOWED, found


def test_the_oracle_and_the_quiver_routes_import_nothing_of_each_other():
    # the skein oracle checks the quiver routes, so it must stay
    # independent of them: quiverstate and knotpipeline import nothing
    # from skein, and skein nothing from either; what both read (the
    # slopes, the twist word, the writhe) lives in tangles
    package = Path(quivertangle.__file__).parent
    imports = {path.stem: _package_imports(ast.parse(path.read_text()))
               for path in package.glob("*.py")}
    routes = {"quiverstate", "knotpipeline"}
    assert "tangles" in imports["skein"] & imports["quiverstate"]
    assert not any("skein" in imports[stem] for stem in routes), imports
    assert not imports["skein"] & routes, imports["skein"]


def test_readme_bounds_match_the_source():
    # every `NAME` = value the README states for a bound is the value
    # the source holds, and the refusal table states each of them
    from quivertangle import cli, quiverstate, skein, verify
    readme = Path(quivertangle.__file__).parents[2] / "README.md"
    stated = re.findall(r"`(MAX_[A-Z_]+)` = (\d+(?:\^\d+)?)",
                        readme.read_text())
    bounds = {"MAX_VERTICES": quiverstate.MAX_VERTICES,
              "MAX_ORACLE_COLOR": skein.MAX_ORACLE_COLOR,
              "MAX_ORACLE_TWISTS": skein.MAX_ORACLE_TWISTS,
              "MAX_CROSSINGS": cli.MAX_CROSSINGS,
              "MAX_DIM_VECTORS": verify.MAX_DIM_VECTORS}
    assert {name for name, _ in stated} == set(bounds), stated
    for name, text in stated:
        base, _, power = text.partition("^")
        assert int(base) ** int(power or 1) == bounds[name], (name, text)


def test_cli_import_leaves_out_dataclasses():
    # dataclasses imports inspect, which costs start-up time on every
    # command; a fresh import of the CLI loads neither
    src = str(Path(quivertangle.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quivertangle.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

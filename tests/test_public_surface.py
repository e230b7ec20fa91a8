"""Every public function, class and method of ``src/cloaksim`` has a user.

A top-level function or class of a module, or a method of a public class,
is public if its name has no leading underscore.  It is used if its name is
read in the package (outside its own body), in a demo, in ``bench/*.py``
(whose tracer patches names given as strings) or in the README's "Library
example".  Tests do not count: what only tests call belongs in
``tests/oracle.py`` or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cloaksim"
# reading a manifest back is how a run is reproduced; no command does it yet
ALLOWED = {"manifest.RunManifest.read"}


def _names(tree, strings):
    """The names a tree reads: names, attributes, imported names and (with
    strings) identifier strings, less those read in a function's own body."""
    def walk(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        found = {node.id} if isinstance(node, ast.Name) else set()
        if isinstance(node, ast.Attribute):
            found = {node.attr}
        elif isinstance(node, ast.ImportFrom):
            found = {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            found = {node.value}
        for child in ast.iter_child_nodes(node):
            found |= walk(child, inside)
        return found - inside
    return walk(tree, frozenset())


def _used_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme,
                        re.S).group(1)
    names = _names(ast.parse(example), False)
    for pattern, strings in (("src/cloaksim/*.py", False),
                             ("demos/*.py", False), ("bench/*.py", True)):
        for path in sorted(ROOT.glob(pattern)):
            names |= _names(ast.parse(path.read_text(encoding="utf-8")),
                            strings)
    return names


def _public_definitions():
    """(module.qualified.name, name) of every public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_user():
    used = _used_names()
    unused = [qual for qual, name in _public_definitions()
              if name not in used and qual not in ALLOWED]
    assert not unused, f"public, but unused outside the tests: {unused}"


def test_the_scan_sees_the_library_and_its_users():
    assert {"modal.solve_source", "specfun.bessel_table",
            "manifest.RunManifest.read"} <= dict(_public_definitions()).keys()
    assert {"solve_source", "limit_coeffs", "integrate_panels",
            "conjugate"} <= _used_names()

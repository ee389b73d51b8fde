"""Source hygiene: every name a module imports is used in it, and every
public name and class member the package defines has a caller.

AST scans, so no linter is needed: a name bound by `import` or
`from ... import` counts as used when it appears as a name anywhere in the
same file (an attribute chain `np.fft.rfft` uses `np`).  Package
`__init__.py` files are left out, since re-exporting is their purpose.  A
top-level public function or class of `src/besovlab` has a caller when some
package module loads it by name or attribute, or `__init__.py` exports it.  A
public method or property of a class there has a caller when some package
module loads an attribute of its name.  Both scans go by name alone, so a
member that shares its name with a loaded attribute of anything else (such
as `GridSpec.meshgrid` and `np.meshgrid`) counts as called.  No package
module imports another's private (`_`) name: what a module shares is
public.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in [*ROOT.glob("tests/*.py"), *ROOT.glob("src/besovlab/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "print(np.fft, d)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


def uncalled_public_names(sources: dict[str, str], exported: str) -> list[str]:
    """`module.name` of each top-level public function or class in
    `sources` (module name -> source) that no source loads by name or
    attribute and the `exported` (`__init__.py`) source does not import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {node.id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {node.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    loaded |= {alias.asname or alias.name for node in ast.walk(ast.parse(exported))
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in loaded)


def test_scan_sees_uncalled_names():
    sources = {"a": "def used(): pass\ndef spare(): pass\nclass Kept: pass\n"
                    "def _private(): pass\n",
               "b": "from .a import used\nused()\n"}
    assert uncalled_public_names(sources, "from .a import Kept\n") == ["a.spare"]


def test_no_public_name_without_a_caller():
    package = ROOT / "src" / "besovlab"
    sources = {p.stem: p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"}
    uncalled = uncalled_public_names(sources, (package / "__init__.py").read_text())
    assert not uncalled, "public names nothing calls or exports: " + ", ".join(uncalled)


def unread_members(sources: dict[str, str]) -> list[str]:
    """`Class.name` of each public method or property of a class in `sources`
    (module name -> source) that no source loads as an attribute."""
    trees = [ast.parse(source) for source in sources.values()]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted({f"{cls.name}.{node.name}" for tree in trees for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_") and node.name not in loaded})


def test_scan_sees_unread_members():
    sources = {"a": "class A:\n    def used(self): pass\n    def spare(self): pass\n"
                    "    @property\n    def view(self): pass\n"
                    "    @view.setter\n    def view(self, v): pass\n"
                    "    def __len__(self): return 0\n    def _helper(self): pass\n",
               "b": "from .a import A\nA().used()\nA().view = 1\n"}
    assert unread_members(sources) == ["A.spare", "A.view"]


def test_no_class_member_without_a_caller():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "besovlab").glob("*.py")}
    unread = unread_members(sources)
    assert not unread, "class members no module reads: " + ", ".join(unread)


def private_imports(sources: dict[str, str]) -> list[str]:
    """`module: name` of each private (`_`, not dunder) name a module of
    `sources` (module name -> source) imports from another package module,
    by a relative or a `besovlab` import."""
    return sorted(f"{module}: {alias.name}" for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("besovlab"))
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_scan_sees_private_imports():
    sources = {"a": "from __future__ import annotations\nfrom . import __version__, b\n"
                    "from .b import Public, _private\nfrom numpy import _core\n",
               "c": "from besovlab.b import _other\n"}
    assert private_imports(sources) == ["a: _private", "c: _other"]


def test_no_private_import_across_modules():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "besovlab").glob("*.py")}
    private = private_imports(sources)
    assert not private, "private names imported from another module: " + ", ".join(private)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)

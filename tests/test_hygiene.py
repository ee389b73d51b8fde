"""Source hygiene: every name a module imports is used in it, every
public name and class member the package defines has a caller, the
README's Python API section states the package's exports, and every name a
docstring quotes exists.

AST scans, so no linter is needed: a name bound by `import` or
`from ... import` counts as used when it appears as a name anywhere in the
same file (an attribute chain `np.fft.rfft` uses `np`).  Package
`__init__.py` files are left out, since re-exporting is their purpose.  A
top-level public function or class of `src/besovlab` has a caller when some
package module loads it by name or attribute; one that none loads is an
entry point, and must be both exported by `__init__.py` and named in the
README's Python API section, which names exactly the exports.  A public
method or property of a class there has a caller when some package module
loads an attribute of its name.  Both scans go by name alone, so a member
that shares its name with a loaded attribute of anything else (such as
`GridSpec.meshgrid` and `np.meshgrid`) counts as called.  No package
module imports another's private (`_`) name: what a module shares is
public.  No package module asks which form an argument has
(`isinstance(x, np.ndarray)` or `callable(x)`): every argument has one
type.  No package class declares an annotated field `grid`: a state or a
result holds arrays, and the grid goes alongside them.
"""

import ast
import builtins
import math
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "besovlab"
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


def exported_names(init: str) -> set[str]:
    """The names an `__init__.py` source imports: the package's exports."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(init))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def api_section_names(readme: str) -> set[str]:
    """Every backticked identifier of the list items (paragraphs that start
    with `- `) of the README section headed `## Python API`, up to the next
    `## ` heading; a dotted module path such as `besovlab.spectral` is not
    an identifier and is skipped, and so is the section's prose."""
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    items = "\n".join(p for p in re.split(r"\n(?=- )|\n\n", section) if p.startswith("- "))
    return {name for name in re.findall(r"`([^`]+)`", items) if name.isidentifier()}


def test_scan_reads_the_api_section():
    readme = ("# x\n`early`\n## Python API\n\nProse `prose`.\n\n- `besovlab.a`: `run`,\n"
              "  `GridSpec` (`grid, coeffs`)\n- `step`\n\nMore `prose`.\n## Next\n`late`\n")
    assert api_section_names(readme) == {"run", "GridSpec", "step"}


def uncalled_public_names(sources: dict[str, str], exported: set[str],
                          documented: set[str]) -> list[str]:
    """`module.name` of each top-level public function or class in
    `sources` (module name -> source) that no source loads by name or
    attribute, unless it is both `exported` and `documented`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {node.id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {node.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    loaded |= exported & documented
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in loaded)


def test_scan_sees_uncalled_names():
    sources = {"a": "def used(): pass\ndef spare(): pass\nclass Kept: pass\n"
                    "def listed(): pass\ndef _private(): pass\n",
               "b": "from .a import used\nused()\n"}
    exported = exported_names("from .a import Kept, listed\n")
    assert uncalled_public_names(sources, exported, {"listed", "spare"}) == ["a.Kept", "a.spare"]



def test_no_public_name_without_a_caller():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    uncalled = uncalled_public_names(sources, exported_names((PACKAGE / "__init__.py").read_text()),
                                     api_section_names((ROOT / "README.md").read_text()))
    assert not uncalled, ("public names nothing calls, and that are not both exported and "
                          "in README's Python API section: " + ", ".join(uncalled))


def test_readme_states_the_exports():
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    documented = api_section_names((ROOT / "README.md").read_text())
    assert documented == exported, (f"exported, not in README's Python API section: "
                                    f"{sorted(exported - documented)}; in the section, not "
                                    f"exported: {sorted(documented - exported)}")


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
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
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
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    private = private_imports(sources)
    assert not private, "private names imported from another module: " + ", ".join(private)


def form_branches(sources: dict[str, str]) -> list[str]:
    """`module:line` of each call in `sources` (module name -> source) that
    asks which form an argument has: `callable(...)`, or `isinstance(...)`
    whose type argument names `ndarray`, alone or in a tuple, plain or as
    an attribute (`np.ndarray`): the branch an API taking an array or
    something else needs."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:2] for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if node.func.id == "callable" or (node.func.id == "isinstance"
                                              and "ndarray" in names):
                found.append(f"{module}:{node.lineno}")
    return found


def test_scan_sees_form_branches():
    sources = {"a": "if isinstance(u, np.ndarray):\n    u = u.coeffs\n"
                    "isinstance(u, int)\nisinstance(u, (int, ndarray))\n"
                    "v = v(t) if callable(v) else v\nnp.ndarray(shape)\n"}
    assert form_branches(sources) == ["a:1", "a:4", "a:5"]


def test_no_form_branches():
    found = form_branches({p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    assert not found, "calls that ask which form an argument has: " + ", ".join(found)


def grid_fields(sources: dict[str, str]) -> list[str]:
    """`module.Class` of each class in `sources` (module name -> source)
    whose body declares an annotated field `grid`, as a dataclass field
    (`grid: GridSpec`) is declared."""
    return sorted(f"{module}.{cls.name}" for module, source in sources.items()
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and node.target.id == "grid")


def test_scan_sees_grid_fields():
    sources = {"a": "class State:\n    grid: GridSpec\n    coeffs: np.ndarray\n"
                    "class Stepper:\n    def __init__(self, grid):\n        self.grid = grid\n"
                    "def f(grid: GridSpec):\n    grid: int = 1\n",
               "b": "class Result:\n    times: list\n    grid: object = None\n"}
    assert grid_fields(sources) == ["a.State", "b.Result"]


def test_no_class_holds_a_grid():
    found = grid_fields({p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    assert not found, "classes that hold a grid beside their arrays: " + ", ".join(found)


def stale_docstring_names(sources: dict[str, str]) -> list[str]:
    """`module: name` of each identifier inside a backticked span of a
    docstring in `sources` (module name -> source) that names nothing: not
    a def, class, parameter, assigned name or assigned attribute of the
    sources, a module of them, a string literal in them, or an attribute of
    `numpy`, `numpy.fft`, `numpy.random.Generator`, `math` or the builtins.
    A dotted name resolves by its last part, and a file name with an
    extension (`residuals.csv`) stands for itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    known = set(sources)
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            known.add(node.name)
        elif isinstance(node, ast.arg):
            known.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            known.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            known.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            known.add(node.value)
    for namespace in (np, np.fft, np.random.Generator, math, builtins):
        known |= set(dir(namespace))
    stale = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for span in re.findall(r"`([^`]+)`", ast.get_docstring(node) or ""):
                    for name in re.findall(r"[A-Za-z_]\w*(?:\.\w+)*", span):
                        if not (name.split(".")[-1] in known
                                or re.fullmatch(r"\w+\.(csv|json|npz|py)", name)):
                            stale.add(f"{module}: {name}")
    return sorted(stale)


def test_scan_sees_stale_docstring_names():
    sources = {"a": 'def f(x):\n    """`x`, `np.fft.rfft(x)`, `len`, `key`, `out.csv`, '
                    '`b.g`, `gone(x)`."""\n    return {"key": x}\n',
               "b": 'class C:\n    """`self.y = f`, `spare`."""\n    def g(self):\n'
                    '        self.y = 1\n'}
    assert stale_docstring_names(sources) == ["a: gone", "b: spare"]


def test_no_stale_names_in_docstrings():
    stale = stale_docstring_names({p.stem: p.read_text() for p in PACKAGE.glob("*.py")})
    assert not stale, "docstrings quote names that do not exist: " + ", ".join(stale)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)

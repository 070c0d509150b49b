"""Every imported name in the package and the tests is used, every
package definition, a class's methods and properties included, has a
reader, every default of a package function is overridden by some package
call, the command line imports no scipy module it does not need, and its
LAPACK routines are scipy.linalg.lapack's own.

Each file is parsed with ``ast``; a name bound by an import statement must
appear as a name somewhere else in the same file, or be listed in the
module's ``__all__``.  ``from __future__`` imports are compiler directives
and are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "vvlab").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the file."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node.lineno))
    return out


def _listed(tree):
    """The strings of the file's ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def _referenced(tree):
    """Names loaded anywhere in the file, plus the strings of ``__all__``."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | _listed(tree)


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _referenced(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{name} (line {line})" for name, line in unused)


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math\nimport numpy as np\nfrom os import path, sep\n"
           "__all__ = ['sep']\nx = np.pi\n")
    assert unused_imports(src) == [("math", 2), ("path", 4)]


# definitions, top-level or a class's methods and properties, that no
# package code reads, each with its reason
TEST_ONLY = {
    "remainder_bc_residual": "ROADMAP item 4 reports it in every run",
    "layer_norm_monitor": "ROADMAP item 10 reports it in every run",
}


def unread_definitions(sources):
    """Top-level functions and classes of ``sources``, and the methods and
    properties of those classes, dunders left out, that no source loads as
    a name or an attribute and no ``__all__`` lists; a method is named
    ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, defs):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, defs[:2])
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        read |= _listed(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in defined if name.rsplit(".", 1)[-1] not in read)


def test_every_package_definition_has_a_reader():
    # a definition only tests read is either pinned, with its reason, or dead
    sources = [p.read_text() for p in sorted((ROOT / "src" / "vvlab").glob("*.py"))]
    assert unread_definitions(sources) == sorted(TEST_ONLY)


def test_definition_checker_flags_an_unread_function():
    src = ("__all__ = ['listed']\ndef listed(): pass\ndef used(): pass\n"
           "def dead(): pass\nclass Dead: pass\nx = used\n"
           "class Kept:\n    def __init__(self): pass\n    def read(self): pass\n"
           "    @property\n    def size(self): pass\n    def unread(self): pass\n"
           "Kept().read()\n")
    other = ("import m\nm.attr_read()\ndef attr_read(): pass\ndead = 1\n"
             "y = m.size\n")
    assert unread_definitions([src, other]) == ["Dead", "Kept.unread", "dead"]


# defaulted parameters that no package call passes, each with its reason
NOT_PASSED = {
    "cli_main.argv": "tests call the command line with their own arguments",
    "study_parts.cores": "tests and CI split a study for one core",
    "run_convergence_study.jobs": "the benchmark sets a study's worker count",
    "_BindToPackage.find_spec.target": "the import system's protocol passes it",
}


def _passes(call, at, param):
    """Whether ``call`` passes ``param``, the positional parameter ``at``
    (None for a keyword-only one): by its keyword, by position, or by a
    ``*`` or ``**`` argument, which may pass any."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return at is not None and (len(call.args) > at or any(
        isinstance(a, ast.Starred) for a in call.args))


def _defaulted(fn, bound):
    """(position, name) of the defaulted parameters of the def ``fn``, its
    first ``bound`` parameters bound; a keyword-only one has position None."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[bound:]
    first = len(positional) - len(args.defaults)
    return [(at, a.arg) for at, a in enumerate(positional) if at >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _init_fields(cls):
    """(position, name) of the defaulted ``__init__`` parameters of the
    dataclass ``cls``: its annotated fields in order, bar those of
    ``field(init=False)``; none when ``cls`` is not a dataclass."""
    named = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in named):
        return []
    fields = [item for item in cls.body if isinstance(item, ast.AnnAssign) and not (
        isinstance(item.value, ast.Call) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in item.value.keywords))]
    return [(at, f.target.id) for at, f in enumerate(fields) if f.value is not None]


def unpassed_defaults(sources):
    """Defaulted parameters of the top-level functions of ``sources``, of
    those classes' methods and of their dataclasses' fields that no call in
    ``sources`` passes, named ``function.param``, ``Class.method.param`` or
    ``Class.field``.  A call is matched to a definition by the name it
    calls, plain or an attribute, so a method counts every call of its
    name; ``Cls(...)`` calls ``Cls.__init__``, or the dataclass's generated
    one, whose parameters are its fields in order, and a method's first
    parameter is bound unless it is a staticmethod."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, calls = [], {}
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, funcs):
                defs.append((node.name, node.name, _defaulted(node, 0)))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}",
                          node.name if item.name == "__init__" else item.name,
                          _defaulted(item, 0 if any(
                              isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in item.decorator_list) else 1))
                         for item in node.body if isinstance(item, funcs)]
                defs.append((node.name, node.name, _init_fields(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return sorted(f"{qual}.{param}" for qual, callee, defaulted in defs
                  for at, param in defaulted
                  if not any(_passes(call, at, param) for call in calls.get(callee, ())))


def test_every_package_default_is_passed():
    # a default no package call overrides is either pinned, with its
    # reason, or a constant in disguise
    sources = [p.read_text() for p in sorted((ROOT / "src" / "vvlab").glob("*.py"))]
    assert unpassed_defaults(sources) == sorted(NOT_PASSED)


def test_default_checker_flags_an_unpassed_default():
    src = ("def f(a, b=1, *, c=2, d=3): pass\n"
           "def g(x=0): pass\n"
           "def h(y=0): pass\n"
           "class K:\n    def __init__(self, size=1, fill=0): pass\n"
           "    def put(self, v, at=None): pass\n"
           "    @staticmethod\n    def make(n=1): pass\n"
           "f(0, c=1)\nK(4).put(1)\nK.make(2)\n"
           # a dataclass's fields are its __init__'s parameters, in order,
           # bar field(init=False); a plain class's annotations are not
           "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 1\n"
           "    c: int = 2\n    d: list = field(init=False)\n    e: int = 3\n"
           "@dataclasses.dataclass\nclass R:\n    x: int = 0\n"
           "class Q:\n    y: int = 0\n"
           "P(0, 1, 4)\nP(0, e=2)\n")
    other = "import m\nm.f(0, 1)\nm.g(**opts)\nh(*ys)\n"
    assert unpassed_defaults([src, other]) == ["K.__init__.fill", "K.put.at", "R.x", "f.d"]


def _fresh(code):
    """stdout of ``code`` run by a fresh interpreter that imports from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_interpolate_or_special():
    # scipy.interpolate pulls in special, sparse and optimize at start-up;
    # the package needs only scipy's compiled f2py LAPACK extension, loaded
    # without the scipy.linalg package or its cython_lapack, and a study
    # forks its workers itself, with no process pool
    out = _fresh("import sys, vvlab.cli; print([m for m in "
                 "('scipy.interpolate', 'scipy.special', 'scipy.linalg', "
                 "'scipy.linalg.cython_lapack', 'concurrent.futures.process') "
                 "if m in sys.modules], 'scipy.linalg._flapack' in sys.modules)")
    assert out.strip() == "[] True"


def test_only_the_check_command_loads_the_invariant_suite():
    # study, ns and layer commands neither load nor compile checks.py
    out = _fresh("import sys, vvlab.cli; print('vvlab.checks' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("order", [("vvlab.cli", "scipy.linalg.lapack"),
                                   ("scipy.linalg.lapack", "vvlab.cli")],
                         ids=["vvlab-first", "scipy-first"])
def test_lapack_routines_are_scipy_linalg_lapacks_in_either_order(order):
    out = _fresh(f"import {order[0]}, {order[1]}, vvlab.ns, vvlab.spaces\n"
                 "from scipy.linalg import lapack\n"
                 "print(vvlab.ns.dpttrs is lapack.dpttrs, "
                 "vvlab.ns.dpttrf is lapack.dpttrf, "
                 "vvlab.spaces.dgtsv is lapack.dgtsv)")
    assert out.split() == ["True"] * 3


@pytest.mark.parametrize("order", [("vvlab.cli", "scipy.linalg.lapack"),
                                   ("scipy.linalg.lapack", "vvlab.cli")],
                         ids=["vvlab-first", "scipy-first"])
def test_lapack_extensions_are_registered_under_their_own_names(order):
    # the extension is loaded once, as the module scipy.linalg itself uses,
    # and is scipy.linalg's _flapack attribute in either order
    out = _fresh(f"import sys, {order[0]}, {order[1]}\n"
                 "import scipy.linalg._flapack\n"
                 "full = 'scipy.linalg._flapack'\n"
                 "mods = [k for k, m in list(sys.modules.items()) if "
                 "getattr(m, '__file__', '') == sys.modules[full].__file__]\n"
                 "print(mods == [full], sys.modules[full].__name__ == full, "
                 "scipy.linalg._flapack is sys.modules[full])")
    assert out.split() == ["True"] * 3


def test_lapack_extensions_are_attributes_of_scipy_linalg_imported_after_vvlab():
    # vvlab registers the extension before the scipy.linalg package exists;
    # once it is imported the extension is its attribute, as it is when it
    # is imported first
    out = _fresh("import sys, vvlab.cli, scipy.linalg\n"
                 "print(scipy.linalg._flapack is sys.modules['scipy.linalg._flapack'])")
    assert out.split() == ["True"]


def test_lapack_loader_falls_back_to_the_public_routines(tmp_path):
    # a directory without the extensions falls back to the scipy.linalg
    # package; scipy's own directory reuses the extensions this process
    # already holds
    import scipy
    from scipy.linalg import lapack

    from vvlab import _lapack
    public = (lapack.dgtsv, lapack.dpttrf, lapack.dpttrs)
    for linalg_dir in (tmp_path, Path(scipy.__file__).parent / "linalg"):
        got = _lapack.load(str(linalg_dir))
        assert all(a is b for a, b in zip(got, public, strict=True))

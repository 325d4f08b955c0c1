"""Source hygiene: every module-level import, every function parameter and
every private module-level helper of the package is used, every default
some call overrides and every dataclass field some code reads, no module
runs a full complex FFT, only ``wave`` names the leapfrog solver, no module
writes a coefficient catalog default outside the catalog table, and every
name the benchmark's tracer binds exists."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from homwave.torus import _SPEC_FIELDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homwave"


def unused_imports(path: Path) -> list:
    """(line, name) of each module-level import binding never read.

    A binding counts as read when its name appears as an identifier anywhere
    in the module, including annotations and attribute bases (``np.fft``).
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def unused_parameters(path: Path) -> list:
    """(line, function, parameter) of each parameter its body never reads.

    A parameter counts as read when its name is loaded anywhere in the body,
    nested functions included.  ``self``, ``cls`` and ``_``-prefixed names
    are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, a.arg) for a in params
                if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                and a.arg not in read]
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields(node: ast.ClassDef) -> list:
    """(line, name, has_default, in_init) of each field, in order."""
    out = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        in_init = not (isinstance(value, ast.Call) and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant)
            and kw.value.value is False for kw in value.keywords))
        out.append((stmt.lineno, stmt.target.id, value is not None, in_init))
    return out


def _callables(tree) -> list:
    """(line, label, call names, offset, parameters, defaulted) of every
    function and dataclass of a module: the names a call of it goes by,
    the number of leading parameters a call does not pass (self or cls),
    its parameters in positional order (keyword-only ones last) and those
    with a default."""
    out = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if _is_dataclass(cls):
            fields = [f for f in _dataclass_fields(cls) if f[3]]
            out.append((cls.lineno, cls.name, {cls.name}, 0,
                        [f[1] for f in fields], {f[1] for f in fields if f[2]}))
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", "") == "staticmethod"
                         for d in fn.decorator_list)
            if fn.name == "__init__":
                label, names = cls.name, {cls.name, "__init__"}
            else:
                label, names = f"{cls.name}.{fn.name}", {fn.name}
            out.append((fn.lineno, label, names, 0 if static else 1,
                        *_signature(fn)))
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body}
    out += [(fn.lineno, fn.name, {fn.name}, 0, *_signature(fn))
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and id(fn) not in methods]
    return out


def _signature(fn: ast.FunctionDef):
    args = fn.args
    positional = args.posonlyargs + args.args
    defaulted = {a.arg for a in positional[len(positional) - len(args.defaults):]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    return [a.arg for a in positional + args.kwonlyargs], defaulted


def _calls(tree) -> list:
    """(name, positional count or None after a ``*``, keywords or None
    after a ``**``) of every call in a module; ``cls(...)`` inside a class
    is a call of that class."""
    out = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name == "cls" and owner is not None:
                name = owner
            starred = [i for i, a in enumerate(node.args)
                       if isinstance(a, ast.Starred)]
            keywords = {kw.arg for kw in node.keywords}
            out.append((name, starred[0] if starred else len(node.args),
                        bool(starred),
                        None if None in keywords else keywords))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


def defaults_never_passed(package: Path, callers) -> list:
    """(module, line, owner.parameter) of each parameter or dataclass field
    of ``package`` with a default that no call in the files ``callers``
    passes: by keyword, by position (a dataclass's fields in order, a
    method's after self), or through ``*``/``**``.  Calls are matched by
    name, so a call of any same-named function counts."""
    calls = [c for path in callers
             for c in _calls(ast.parse(path.read_text(), filename=str(path)))]
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, label, names, offset, params, defaulted in _callables(tree):
            passed = set()
            for name, count, starred, keywords in calls:
                if name not in names:
                    continue
                stop = len(params) if starred else offset + count
                passed.update(params[offset:stop])
                passed.update(params if keywords is None else keywords)
            out += [(path.name, line, f"{label}.{p}")
                    for p in params if p in defaulted and p not in passed]
    return sorted(out)


def dataclass_fields_never_read(package: Path, readers) -> list:
    """(module, line, class.field) of each dataclass field of ``package``
    that no file of ``readers`` reads as an attribute (``x.field`` loaded).
    Attributes are matched by name, so a read of any same-named attribute
    counts."""
    read = {n.attr for path in readers
            for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                out += [(path.name, line, f"{cls.name}.{name}")
                        for line, name, _, _ in _dataclass_fields(cls)
                        if name not in read]
    return out


SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_every_default_is_overridden_somewhere():
    # a default that every call leaves alone is a constant with extra steps
    assert defaults_never_passed(PACKAGE, SOURCES) == []


def test_every_dataclass_field_is_read():
    assert dataclass_fields_never_read(PACKAGE, SOURCES) == []


def test_checker_flags_a_default_no_call_passes(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def f(x, y=1, *, z=2, w=3):\n    return x + y + z + w\n\n"
        "def g(x, y=1, z=2):\n    return x\n\n"
        "@dataclass\nclass D:\n    a: int\n    b: int = 0\n    c: int = 1\n"
        "    d: int = field(init=False)\n\n"
        "    @classmethod\n    def make(cls, a, scale=1):\n"
        "        return cls(a, 2, c=scale)\n\n"
        "class K:\n    def __init__(self, p, q=None):\n        self.p = p\n"
        "    def m(self, r, s=0):\n        return r\n")
    (tmp_path / "use.py").write_text(
        "from pkg.a import D, K, f, g\n"
        "f(1, 2, w=4)\ng(*[1, 2, 3])\nD.make(1)\nK(1, 2).m(3)\n")
    callers = [package / "a.py", tmp_path / "use.py"]
    assert defaults_never_passed(package, callers) == [
        ("a.py", 3, "f.z"), ("a.py", 17, "D.make.scale"),
        ("a.py", 23, "K.m.s")]


def test_checker_flags_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
        "    c: int = field(init=False)\n\n"
        "    def __post_init__(self):\n        self.c = self.a\n\n"
        "class K:\n    unread: int = 0\n")
    (tmp_path / "b.py").write_text("def f(d):\n    return d.b\n")
    assert dataclass_fields_never_read(
        tmp_path, [tmp_path / "a.py", tmp_path / "b.py"]) == [
        ("a.py", 7, "D.c")]


# numpy transforms of complex data over every mode; the package keeps to
# the torus half-spectrum pair (and bloch's rfft/irfft)
FULL_COMPLEX = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2")


def full_complex_transforms(path: Path) -> list:
    """(line, name) of each full complex numpy transform a module names:
    an attribute ``<...>.fft.<name>`` or ``fft.<name>``, or a name imported
    from ``numpy.fft``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FULL_COMPLEX:
            base = node.value
            if ((isinstance(base, ast.Attribute) and base.attr == "fft")
                    or (isinstance(base, ast.Name) and base.id == "fft")):
                out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in FULL_COMPLEX]
    return sorted(out)


def _names_referenced(node) -> list:
    """Names one AST node refers to: a name it reads, the attribute it
    takes, or the names it imports with ``from ... import``."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def dead_private_helpers(package: Path) -> list:
    """(module, line, name) of each module-level ``_``-prefixed function or
    class that no module of ``package`` refers to outside the helper's own
    definition (so recursion alone does not keep a helper alive).  Dunder
    names are exempt."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    counts = Counter(name for tree in trees.values() for n in ast.walk(tree)
                     for name in _names_referenced(n))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            own = sum(name == node.name for n in ast.walk(node)
                      for name in _names_referenced(n))
            if counts[node.name] == own:
                out.append((module, node.lineno, node.name))
    return out


def test_no_dead_private_helpers():
    assert dead_private_helpers(PACKAGE) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_full_complex_transforms(path):
    assert full_complex_transforms(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import math\nimport numpy as np\n"
                     "from os import path, sep\n\n"
                     "def f(x: np.ndarray):\n    return path.join(x)\n")
    assert unused_imports(probe) == [(2, "math"), (4, "sep")]


def test_checker_flags_an_unused_parameter(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b, *args, c, _d, **kw):\n"
                     "    def g(x):\n        return a + x\n"
                     "    b = 1\n    return g(c)\n\n"
                     "class K:\n    def m(self, y):\n        return 0\n")
    assert unused_parameters(probe) == [(1, "f", "b"), (1, "f", "args"),
                                        (1, "f", "kw"), (8, "m", "y")]


def test_checker_flags_a_full_complex_transform(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy import fft\n"
                     "from numpy.fft import ifft2, rfft\n\n"
                     "def f(x):\n"
                     "    y = np.fft.rfftn(x) + np.fft.fftfreq(4)\n"
                     "    return np.fft.fftn(x), fft.ifft(y), rfft(x)\n")
    assert full_complex_transforms(probe) == [(3, "ifft2"), (7, "fftn"),
                                              (7, "ifft")]


def test_checker_flags_a_dead_private_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used_here():\n    return 1\n\n"
        "def _imported():\n    return 2\n\n"
        "def _by_attribute():\n    return 3\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
        "def _dead():\n    return _used_here()\n\n"
        "class _DeadClass:\n    pass\n\n"
        "def __getattr__(name):\n    return name\n\n"
        "def public():\n    return _used_here()\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _imported\n\n"
        "def g():\n    return _imported() + a._by_attribute()\n")
    assert dead_private_helpers(tmp_path) == [
        ("a.py", 10, "_recursive"), ("a.py", 13, "_dead"),
        ("a.py", 16, "_DeadClass")]


def names_read(path: Path) -> set:
    """Every name and attribute a module refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {name for node in ast.walk(tree) for name in _names_referenced(node)}


def parameter_names(path: Path) -> set:
    """Every parameter name of every function a module defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {a.arg for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for a in (node.args.posonlyargs + node.args.args
                      + node.args.kwonlyargs)}


def test_correctors_fit_no_direction_samples():
    # the recursion runs on monomial coefficients, so nothing is fitted
    # through per-direction builds
    assert names_read(PACKAGE / "correctors.py") & {"lstsq", "pinv"} == set()


def test_solve_starts_are_neither_supplied_nor_fitted():
    # an elliptic solve starts from zero or from its own coarse-grid solve:
    # no caller hands in a start, and none is fitted
    torus_py = PACKAGE / "torus.py"
    assert parameter_names(torus_py) & {"guess", "x0", "start"} == set()
    assert names_read(torus_py) & {"lstsq", "pinv"} == set()


def test_checkers_see_fits_and_guesses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.linalg import pinv\n\n"
                     "def solve(a, b, *, guess=None):\n"
                     "    return np.linalg.lstsq(a, b), pinv(a), guess\n")
    assert names_read(probe) >= {"lstsq", "pinv"}
    assert parameter_names(probe) == {"a", "b", "guess"}


def modules_naming(package: Path, name: str) -> list:
    """Modules of ``package`` that refer to ``name`` (read it, take it as an
    attribute or import it); a module that only defines it does not."""
    return [path.name for path in sorted(package.glob("*.py"))
            if name in names_read(path)]


def test_leapfrog_is_only_a_cross_check():
    # every experiment runs the exact Bloch solver: no module but the one
    # defining it names leapfrog
    assert [m for m in modules_naming(PACKAGE, "solve_fine_wave")
            if m != "wave.py"] == []


def test_checker_sees_a_named_solver(tmp_path):
    (tmp_path / "a.py").write_text("def solve_fine_wave():\n    return 0\n")
    (tmp_path / "b.py").write_text("from .a import solve_fine_wave\n")
    (tmp_path / "c.py").write_text("from . import a\n\n"
                                   "def f():\n    return a.solve_fine_wave()\n")
    (tmp_path / "d.py").write_text(
        "from .bloch import solve_fine_wave_exact\n"
        "# solve_fine_wave in a comment\nDOC = 'solve_fine_wave'\n")
    assert modules_naming(tmp_path, "solve_fine_wave") == ["b.py", "c.py"]


# the catalog's field names: its defaults live in one table
CATALOG_FIELDS = {"kind"} | {key for required, defaults, _ in _SPEC_FIELDS.values()
                             for key in (*required, *defaults)}


def catalog_defaults(path: Path) -> list:
    """(line, field) of each ``.get(field, default)`` call a module makes
    with a catalog field name: a default written outside
    ``torus._SPEC_FIELDS``, on a spec or on its parsed fields."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted((node.lineno, node.args[0].value) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and len(node.args) == 2
                  and isinstance(node.args[0], ast.Constant)
                  and node.args[0].value in CATALOG_FIELDS)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_catalog_defaults_are_written_once(path):
    assert catalog_defaults(path) == []


def test_checker_flags_a_catalog_default(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(spec, fields, meta):\n"
                     "    kind = spec.get('kind')\n"
                     "    period = float(spec.get('period', 1.0))\n"
                     "    axis = int(fields.get('axis', 0))\n"
                     "    return meta.get('energy_t0', 0.0), spec['values']\n")
    assert catalog_defaults(probe) == [(3, "period"), (4, "axis")]


def install_tracer(prelude: str = "") -> subprocess.CompletedProcess:
    """``bench/tracer.install`` in a fresh process on ``src/``, after
    ``prelude``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    code = prelude + "import tracer\ntracer.install(tracer.Tracer())\n"
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_tracer_binds_existing_names():
    # the traced benchmark wraps package functions by name: a deleted or
    # renamed one fails here, not only in the traced benchmark run
    proc = install_tracer()
    assert proc.returncode == 0, proc.stderr


def test_tracer_check_sees_a_missing_name():
    proc = install_tracer("from homwave import torus\n"
                          "del torus.apply_div_a_grad\n")
    assert proc.returncode != 0 and "apply_div_a_grad" in proc.stderr

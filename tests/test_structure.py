"""Parallel work has one owner, ``randonet._parallel``.

Only that module starts threads or processes, reads the affinity mask,
names the thread-count symbols of numpy's and scipy's bundled OpenBLAS or
calls the setter that ``numpy_blas_threads()`` or ``scipy_blas_threads()``
returns. Other modules call it and
take no private name of ``embeddings``, ``problems`` or ``linalg``.

Input checks have one home, ``randonet._checks``: it imports nothing from
the package, and no other module tests an array for complex values.

LAPACK has one calling convention: no module imports scipy's f2py
wrappers, ``scipy.linalg.lapack``, and only ``linalg`` reaches the
``cython_lapack`` capsules. Every routine that ``linalg`` binds there is
called.

scipy's submodules are imported where they are called, never at module
level, so ``import randonet`` loads neither ``scipy.linalg`` nor
``scipy.special``: a process that builds or evaluates without factoring
pays for neither.

The dataset cache key hashes the source of the modules that make the
dataset bits. They import no package module beyond each other but the
value-neutral ``model`` (for ``AlignedDataset``) and ``_checks``, so a new
generator module cannot be left out of the key.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import randonet
from randonet import harness

SOURCES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(randonet.__file__).parent.glob("*.py"))}

# Package modules the generator may import unhashed: they change no value.
VALUE_NEUTRAL = {"model", "_checks"}


def reads_blas_threads(node) -> bool:
    """Whether ``node`` calls a ``(get, set)`` thread-count reader such as
    ``scipy_blas_threads()``, by name or attribute."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
        node.func, "id", "")).endswith("blas_threads")


def is_setter(node) -> bool:
    """Whether ``node`` is ``reader()[1]``."""
    return isinstance(node, ast.Subscript) and reads_blas_threads(node.value) \
        and isinstance(node.slice, ast.Constant) and node.slice.value == 1


def parallel_work(tree) -> list:
    """One line for each thing ``tree`` does that only ``_parallel`` may do."""
    setters = set()  # names bound to a reader's setter
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and len(target.elts) > 1 \
                        and reads_blas_threads(node.value):
                    target = target.elts[1]
                elif not is_setter(node.value):
                    continue
                if isinstance(target, ast.Name):
                    setters.add(target.id)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, names = [node.module or ""], [alias.name for alias in node.names]
        else:
            modules, names = [], []
        found += [f"imports {module}" for module in modules
                  if module.split(".")[0] in ("threading", "_thread", "multiprocessing",
                                              "concurrent")]
        if "sched_getaffinity" in names or getattr(node, "attr", None) == "sched_getaffinity":
            found.append("reads the affinity mask")
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
                node.func, "id", None)) in ("Thread", "start_new_thread", "Process"):
            found.append("starts a thread or process")
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "openblas" in node.value and "threads" in node.value:
            found.append(f"names {node.value}")
        if isinstance(node, ast.Call) and (is_setter(node.func) or getattr(
                node.func, "id", None) in setters):
            found.append("sets a BLAS thread count")
    return found


def private_names_reached(tree) -> list:
    """``module.name`` of every private name ``tree`` takes from embeddings,
    problems or linalg."""
    owners = ("embeddings", "problems", "linalg")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in owners:
            found += [f"{node.module.split('.')[-1]}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in owners and node.attr.startswith("_"):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def imported_modules(tree) -> set:
    """The top-level name of every module ``tree`` imports; "." for a relative import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." if node.level else node.module.split(".")[0])
    return found


def package_imports(tree) -> set:
    """The package modules ``tree`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("randonet.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "randonet"):
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            found |= {parts[0]} if parts and parts[0] else {alias.name for alias in node.names}
    return found


def hashed_modules(monkeypatch) -> set:
    """The modules whose source the generator digest reads, seen by running it."""
    read = []
    monkeypatch.setattr(Path, "read_bytes", lambda path: read.append(path.stem) or b"")
    harness._generator_digest.__wrapped__()
    return set(read)


def lapack_use(tree) -> list:
    """One line for each way ``tree`` reaches scipy's LAPACK wrappers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "attr", getattr(node.value, "id", ""))
            paths = [f"{owner}.{node.attr}"]
        elif isinstance(node, ast.Name):
            paths = [node.id]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if "lapack" in parts and "linalg" in parts:
                found.append("imports scipy.linalg.lapack")
            if "cython_lapack" in parts:
                found.append("touches cython_lapack")
    return found


def lapack_bindings(tree) -> tuple[set, set]:
    """The routines ``tree`` binds in ``_LAPACK``, and those it names as the
    first argument of a ``_lapack`` or ``_lapack_with_work`` call."""
    bound, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "_LAPACK" for target in node.targets):
            bound |= {const.value for const in ast.walk(node.value)
                      if isinstance(const, ast.Constant) and isinstance(const.value, str)}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "_lapack", "_lapack_with_work") and node.args \
                and isinstance(node.args[0], ast.Constant):
            called.add(node.args[0].value)
    return bound, called


# scipy submodules that cost import time and memory a process may not need.
LAZY_SCIPY = ("scipy.linalg", "scipy.special", "scipy.integrate")


def module_level_scipy_imports(tree) -> list:
    """Each import of a :data:`LAZY_SCIPY` module in ``tree`` outside a function body."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            paths = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            paths = []
        found += [path for path in paths if any(
            path == lazy or path.startswith(lazy + ".") for lazy in LAZY_SCIPY)][:1]
        todo += list(ast.iter_child_nodes(node))
    return found


def test_only_parallel_starts_workers_or_sets_blas_threads():
    found = {name: parallel_work(tree) for name, tree in SOURCES.items() if name != "_parallel"}
    assert {name: work for name, work in found.items() if work} == {}
    # The scan sees what it looks for: the owner does all of it.
    assert set(parallel_work(SOURCES["_parallel"])) == {
        "imports threading", "imports multiprocessing", "reads the affinity mask",
        "starts a thread or process", "names scipy_openblas_get_num_threads",
        "names scipy_openblas_set_num_threads", "sets a BLAS thread count"}


def test_the_scan_sees_every_call_of_a_blas_thread_setter():
    source = """
get, set_ = numpy_blas_threads()
set_(2)
threads = _parallel.scipy_blas_threads()[1]
threads(1)
_parallel.scipy_blas_threads()[1](4)
_parallel.scipy_blas_threads()[0]()
"""
    assert parallel_work(ast.parse(source)) == ["sets a BLAS thread count"] * 3


def test_no_module_reaches_private_names_of_embeddings_or_problems():
    found = {name: private_names_reached(tree) for name, tree in SOURCES.items()}
    assert {name: reached for name, reached in found.items() if reached} == {}


def test_the_scan_sees_a_private_name_of_linalg():
    planted = """
from .linalg import _check_real
from randonet.linalg import _as_matrix, cod_factorize
linalg._check_finite(x, "x")
"""
    assert private_names_reached(ast.parse(planted)) == [
        "linalg._check_real", "linalg._as_matrix", "linalg._check_finite"]


def test_input_checks_import_only_numpy():
    assert imported_modules(SOURCES["_checks"]) == {"__future__", "numpy"}
    # The scan sees the package, imported relatively or by name.
    assert "." in imported_modules(SOURCES["model"])
    assert imported_modules(ast.parse("import randonet.linalg")) == {"randonet"}


def test_the_generator_imports_no_unhashed_module_that_could_change_a_value(monkeypatch):
    hashed = hashed_modules(monkeypatch)
    assert {"problems", "funcgen"} <= hashed  # the digest reads what it hashes
    found = {name: package_imports(SOURCES[name]) - hashed - VALUE_NEUTRAL for name in hashed}
    assert {name: unhashed for name, unhashed in found.items() if unhashed} == {}


def test_the_scan_sees_every_way_to_import_a_package_module(monkeypatch):
    planted = {
        "from . import _parallel, linalg": {"_parallel", "linalg"},
        "from .linalg import cod_factorize": {"linalg"},
        "from randonet import embeddings": {"embeddings"},
        "from randonet.linalg import cod_factorize": {"linalg"},
        "import randonet.linalg as la": {"linalg"},
        "import randonet\nimport numpy\nfrom scipy import linalg": set(),
    }
    for source, modules in planted.items():
        assert package_imports(ast.parse(source)) == modules, source
    # A planted import of an unhashed module that can change a value is caught.
    planted = SOURCES["problems"].body + ast.parse("from .linalg import cod_factorize").body
    unhashed = package_imports(ast.Module(planted, [])) - hashed_modules(monkeypatch)
    assert unhashed - VALUE_NEUTRAL == {"linalg"}


def test_only_the_input_checks_test_for_complex_values():
    found = {name for name, tree in SOURCES.items() for node in ast.walk(tree)
             if getattr(node, "attr", getattr(node, "id", None)) == "iscomplexobj"}
    assert found == {"_checks"}


def test_one_lapack_calling_convention():
    found = {name: set(lapack_use(tree)) for name, tree in SOURCES.items()}
    assert {name: use for name, use in found.items() if use} == {
        "linalg": {"touches cython_lapack"}}


def test_the_scan_sees_every_way_to_reach_lapack():
    planted = {
        "from scipy.linalg import lapack": "imports scipy.linalg.lapack",
        "import scipy.linalg.lapack": "imports scipy.linalg.lapack",
        "from scipy.linalg.lapack import dgeqp3": "imports scipy.linalg.lapack",
        "import scipy.linalg\nscipy.linalg.lapack.dgeqp3(a)": "imports scipy.linalg.lapack",
        "from scipy import linalg\nlinalg.lapack.dgeqp3(a)": "imports scipy.linalg.lapack",
        "from scipy.linalg import cython_lapack": "touches cython_lapack",
        "import scipy.linalg.cython_lapack as capsules": "touches cython_lapack",
        "import scipy.linalg\nscipy.linalg.cython_lapack.__pyx_capi__": "touches cython_lapack",
    }
    for source, line in planted.items():
        assert line in lapack_use(ast.parse(source)), source
    assert lapack_use(ast.parse("from scipy.linalg import qr\nlinalg.qr(a)")) == []


def test_every_bound_lapack_routine_is_called():
    bound, called = lapack_bindings(SOURCES["linalg"])
    assert bound and bound - called == set()


def test_the_scan_sees_a_bound_routine_that_is_never_called():
    planted = """
_LAPACK = {name: _capsule_function(name, nargs)
           for name, nargs in (("dgeqp3", 9), ("dorgqr", 9))}
_lapack_with_work("dgeqp3", rows, cols, work)
_lapack(name, *args)
"""
    bound, called = lapack_bindings(ast.parse(planted))
    assert bound - called == {"dorgqr"}


def test_no_module_imports_a_scipy_submodule_at_module_level():
    found = {name: module_level_scipy_imports(tree) for name, tree in SOURCES.items()}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_the_scan_sees_a_module_level_scipy_submodule_import():
    planted = {
        "from scipy.special import erf": ["scipy.special"],
        "import scipy.linalg": ["scipy.linalg"],
        "from scipy import integrate": ["scipy.integrate"],
        "import scipy.linalg.cython_lapack as capsules": ["scipy.linalg.cython_lapack"],
        "if True:\n    from scipy.special import erf": ["scipy.special"],
        "class C:\n    from scipy import linalg": ["scipy.linalg"],
        "def f():\n    from scipy.special import erf": [],
        "class C:\n    def f(self):\n        import scipy.linalg": [],
        "import scipy\nfrom scipy import sparse": [],
    }
    for source, found in planted.items():
        assert module_level_scipy_imports(ast.parse(source)) == found, source


def test_a_fresh_interpreter_loads_scipy_submodules_only_where_they_are_called(tmp_path):
    # Importing, building case 4 and evaluating a saved model load neither
    # scipy.linalg nor scipy.special; the first COD loads the LAPACK
    # capsules, and the first case-1 build loads erf.
    from randonet import harness, model, problems

    case = problems.case_config(4, size=20)
    ds = problems.build_case(case)
    cfg = harness.ExperimentConfig(case=4, branch="jl", branch_sizes=(8,), trunk_size=16)
    specs = harness.trunk_spec_for(cfg, case.domain), harness.branch_spec_for(cfg, 8, ds.x.size)
    model.save_model(model.train_aligned(ds, *specs), tmp_path / "model.npz")
    script = textwrap.dedent("""
        import json, sys
        import randonet
        import randonet.cli
        from randonet import model, problems

        def loaded():
            return [name for name in ("scipy.linalg", "scipy.linalg.cython_lapack",
                                      "scipy.special") if name in sys.modules]

        states = [loaded()]
        ds = problems.build_case(problems.case_config(4, size=20))
        fitted = model.load_model(sys.argv[1])
        model.evaluate(fitted, ds.U, ds.y)
        states.append(loaded())
        model.train_aligned(ds, fitted.trunk.spec, fitted.branch.spec)
        states.append(loaded())
        problems.build_case(problems.case_config(1, size=20))
        states.append(loaded())
        print(json.dumps(states))
    """)
    src = str(Path(randonet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "model.npz")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [], [], ["scipy.linalg", "scipy.linalg.cython_lapack"],
        ["scipy.linalg", "scipy.linalg.cython_lapack", "scipy.special"]]

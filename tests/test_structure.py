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

The dataset cache key hashes the source of the modules that make the
dataset bits. They import no package module beyond each other but the
value-neutral ``model`` (for ``AlignedDataset``) and ``_checks``, so a new
generator module cannot be left out of the key.
"""

import ast
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

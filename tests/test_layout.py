"""Checks on how the package is put together, read from its source text."""

import ast
import importlib
import pathlib
import re

import smalldev
from smalldev import errors

SRC = pathlib.Path(smalldev.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling_private_names(source: str) -> list[str]:
    """`module.name` for every single-underscore name of a sibling module
    that `source` reads as an attribute or imports."""
    tree = ast.parse(source)
    siblings = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.startswith("smalldev"):
            module = module.removeprefix("smalldev").lstrip(".")
        elif node.level != 1:
            continue
        for alias in node.names:
            if not module:  # from . import spectra
                siblings[alias.asname or alias.name] = alias.name
                if _private(alias.name):
                    found.append(alias.name)
            elif _private(alias.name):  # from .spectra import _power
                found.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{siblings[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_a_sibling_private_name():
    found = {m: sibling_private_names((SRC / f"{m}.py").read_text())
             for m in MODULES}
    assert {m: names for m, names in found.items() if names} == {}


def test_sibling_private_name_check_sees_each_form():
    source = ("from . import spectra as sp, gfunc\n"
              "from .errors import _hidden, PreconditionError\n"
              "from smalldev.pathgen import _rows\n"
              "from . import __version__\n"
              "x = sp._power(1.0, 2.0) + gfunc.log_abs_g + sp.__name__\n"
              "def f(spectra):\n    return spectra._local\n")
    assert sorted(sibling_private_names(source)) == [
        "errors._hidden", "pathgen._rows", "spectra._power"]


def unused_imports(source: str) -> list[str]:
    """Every name that `source` imports at any level but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = {m: unused_imports((SRC / f"{m}.py").read_text()) for m in MODULES}
    assert {m: names for m, names in found.items() if names} == {}


def test_unused_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from . import pathgen, spectra\n"
              "from .errors import CapacityError as Capacity, PreconditionError\n"
              "def f(x: np.ndarray) -> float:\n"
              "    raise Capacity(spectra.total_mass(x))\n")
    assert unused_imports(source) == ["os", "pathgen", "PreconditionError"]


def raised_names(source: str) -> list[str]:
    """The name of what each `raise` in `source` raises, the class that it
    calls or names; a bare re-raise names nothing and is left out."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(ast.unparse(exc))
    return names


def _library_error(name: str) -> bool:
    cls = getattr(errors, name.rpartition(".")[2], None)
    return isinstance(cls, type) and issubclass(cls, errors.SmallDevError)


def test_library_raises_only_its_own_errors():
    # a caller catches SmallDevError alone; cli, the front end, also raises
    # argparse's and the file readers' errors, which it turns into exit codes
    found = {m: [n for n in raised_names((SRC / f"{m}.py").read_text())
                 if not _library_error(n)]
             for m in MODULES if m != "cli"}
    assert {m: names for m, names in found.items() if names} == {}


def test_every_library_error_is_raised():
    # an error class that nothing raises is left over from deleted code
    raised = {name.rpartition(".")[2] for m in MODULES
              for name in raised_names((SRC / f"{m}.py").read_text())}
    classes = {name for name, cls in vars(errors).items() if isinstance(cls, type)
               and issubclass(cls, errors.SmallDevError) and cls is not errors.SmallDevError}
    assert sorted(classes - raised) == []


def test_raised_name_check_sees_each_form():
    source = ("def f(x):\n"
              "    if x:\n        raise ValueError('x')\n"
              "    try:\n        g()\n"
              "    except KeyError:\n        raise CapacityError('y') from None\n"
              "    except OSError:\n        raise\n"
              "    raise errors.DomainError\n")
    assert sorted(raised_names(source)) == [
        "CapacityError", "ValueError", "errors.DomainError"]
    assert [_library_error(n) for n in ("ValueError", "CapacityError",
                                        "errors.DomainError", "SmallDevError")] \
        == [False, True, True, True]


def test_bench_trace_targets_exist():
    # every function that the benchmark's tracer wraps or counts exists on
    # its module, so a rename cannot silently break a traced run
    targets = re.findall(r't\.(?:span|count)\(\s*sd\.(\w+),\s*"(\w+)"',
                         LAYERS.read_text())
    assert len(targets) >= 10
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"smalldev.{module}"),
                                       name, None))]
    assert missing == []

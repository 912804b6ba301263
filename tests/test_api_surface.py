"""No public function or method exists that only its own tests use.

Every function listed in a layer's ``__all__``, and every public method,
property, staticmethod and classmethod of a class listed there, must be
named somewhere in ``src/setnet`` outside its own body (its ``def``, its
``__all__`` string and the package re-export are not uses), or be imported
by the acceptance suite.  Uses are matched by identifier: a bare name or an
attribute such as ``detect.box_table`` or ``self.area``.

Every ``layer.name`` that a docstring in ``src/setnet`` names, its layer a
module of the package, must exist.

One function writes files: ``formats.write_lines`` holds the only ``open``
call in ``src/setnet`` whose mode writes.

One rule checks counts: no ``__post_init__`` of a class in a layer's
``__all__`` calls ``int(``, which would truncate a value that
``numerics._check_count`` rejects.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import setnet

SRC = pathlib.Path(setnet.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).with_name("test_acceptance.py")
LAYERS = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("_"))


def loaded(node):
    """The identifiers that ``node`` loads: bare names and attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def names_used_in_src():
    """Identifiers loaded in src/setnet, each top-level def's own name aside,
    and each class member's (a def one level down) within its own body."""
    used = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.iter_child_nodes(top):
                used |= loaded(node) - {getattr(top, "name", None), getattr(node, "name", None)}
    return used


def names_imported_by_acceptance():
    return {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def public_functions():
    for layer in LAYERS:
        module = importlib.import_module(f"setnet.{layer}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)):
                yield f"{layer}.{name}"


def public_members():
    """``layer.Class.name`` of each public method, property, staticmethod and
    classmethod that a class in a layer's ``__all__`` defines itself."""
    for layer in LAYERS:
        module = importlib.import_module(f"setnet.{layer}")
        for cls_name in getattr(module, "__all__", ()):
            cls = getattr(module, cls_name)
            if not inspect.isclass(cls):
                continue
            for name, value in vars(cls).items():
                if not name.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, (property, staticmethod, classmethod))):
                    yield f"{layer}.{cls_name}.{name}"


USED = names_used_in_src() | names_imported_by_acceptance()


@pytest.mark.parametrize("qualname", list(public_functions()))
def test_public_function_has_a_caller(qualname):
    assert qualname.split(".")[1] in USED, (
        f"{qualname} is public, but nothing in src/setnet calls it and the "
        "acceptance suite does not import it")


@pytest.mark.parametrize("qualname", list(public_members()))
def test_public_member_has_a_caller(qualname):
    assert qualname.split(".")[2] in USED, (
        f"{qualname} is public, but nothing in src/setnet uses it and the "
        "acceptance suite does not import it")


def docstring_references():
    """Each ``layer.name`` in a src/setnet docstring whose layer is a module
    of the package, as (the file, the reference)."""
    pattern = re.compile(rf"\b({'|'.join(LAYERS)})\.(\w+)")
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                for ref in pattern.finditer(ast.get_docstring(node) or ""):
                    yield path.name, ref.group(0)


def test_docstring_references_name_what_exists():
    stale = [(name, ref) for name, ref in docstring_references()
             if not hasattr(importlib.import_module(f"setnet.{ref.split('.')[0]}"),
                            ref.split(".")[1])]
    assert not stale, f"docstrings name attributes that do not exist: {stale}"


def writing_opens():
    """(file, top-level name) of each ``open`` call in src/setnet whose mode
    may write: any mode but a constant without "w", "a" and "x"."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    continue
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and not set("wax") & set(mode.value)):
                    yield path.name, getattr(top, "name", None)


def test_only_write_lines_opens_a_file_for_writing():
    assert list(writing_opens()) == [("formats.py", "write_lines")]


def post_inits_calling_int():
    """``layer.Class`` of each class in a layer's ``__all__`` whose
    ``__post_init__`` calls ``int``."""
    for layer in LAYERS:
        module = importlib.import_module(f"setnet.{layer}")
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in getattr(module, "__all__", ())):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__" and any(
                        isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                        and c.func.id == "int" for c in ast.walk(node)):
                    yield f"{layer}.{cls.name}"


def test_no_post_init_truncates_a_count_with_int():
    assert list(post_inits_calling_int()) == []

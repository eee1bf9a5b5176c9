"""The package's import layers, read from the sources: the mask format and
the graph container import nothing from the package, the covering LP and
the symmetry module import nothing from the search engine, only dims turns
distances into masks, and every top-level name resolves."""
import ast
from pathlib import Path

import pytest

import mixdim

SRC = Path(mixdim.__file__).resolve().parent


def _package_imports(module: str) -> set[str]:
    """The absolute names of what src/mixdim/<module>.py imports from the
    package: a module for `from .cover import x`, each name for
    `from . import x`."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.split(".")[0] == "mixdim")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(filter(None, ("mixdim", node.module)))
            elif node.module.split(".")[0] == "mixdim":
                base = node.module
            else:
                continue
            if base == "mixdim":
                out.update(f"mixdim.{a.name}" for a in node.names)
            else:
                out.add(base)
    return out


def test_package_imports_reader():
    # a reader that found nothing would pass the leaf checks below
    assert _package_imports("cover") >= {"mixdim._cover_py", "mixdim._cover_c", "mixdim.masks"}
    assert "mixdim.cover" in _package_imports("dims")


@pytest.mark.parametrize("module", ["masks", "graphs"])
def test_leaf_modules_import_nothing_from_the_package(module):
    assert _package_imports(module) == set()


@pytest.mark.parametrize("module", ["lp", "symmetry"])
def test_lp_and_symmetry_do_not_import_the_search(module):
    assert "mixdim.cover" not in _package_imports(module)


def _names(module: str) -> set[str]:
    """Every identifier that src/mixdim/<module>.py names in its code:
    variables, attributes, imported names and definitions."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_only_dims_turns_distances_into_masks():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    assert "_words_of_rows" in _names("dims")  # the reader sees the one use
    assert [m for m in modules if m not in ("masks", "dims") and "_words_of_rows" in _names(m)] == []


def test_every_public_name_resolves():
    assert [name for name in mixdim.__all__ if not hasattr(mixdim, name)] == []

"""Build the compiled kernel for this test session and attach it to
mixdim.cover, so tier-1 runs both kernels.

The extension is compiled once, with setuptools' build_ext and the system
compiler, into a temporary directory outside the source tree, and loaded
from there before collection; nothing is written under src/.  When it
cannot be built the suite runs the Python kernel alone, and
test_backends_agree skips with the build error.
"""
import importlib.util
import tempfile
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
from setuptools.errors import BaseError, CCompilerError

import mixdim.cover as cover
from mixdim.cover import available_backends

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "mixdim" / "_cover_c.c"


def _build_compiled_kernel():
    """The freshly built mixdim._cover_c module."""
    name = "mixdim._cover_c"
    with tempfile.TemporaryDirectory(prefix="mixdim-kernel-") as tmp:
        cmd = build_ext(Distribution({"ext_modules": [Extension(name, [str(KERNEL_SOURCE)])]}))
        cmd.build_lib = tmp
        cmd.build_temp = str(Path(tmp) / "obj")
        cmd.ensure_finalized()
        cmd.run()
        spec = importlib.util.spec_from_file_location(name, cmd.get_ext_fullpath(name))
        module = importlib.util.module_from_spec(spec)
        # a loaded shared object outlives its file, so tmp can go
        spec.loader.exec_module(module)
    return module


try:
    cover._cover_c = _build_compiled_kernel()
    BUILD_ERROR = None
except (BaseError, CCompilerError) as exc:
    BUILD_ERROR = f"{type(exc).__name__}: {exc}"


@pytest.fixture
def compiled_kernel():
    """mixdim._cover_c; skips, naming the build error, when it is not built."""
    if cover._cover_c is None:
        pytest.skip(f"compiled kernel not built: {BUILD_ERROR}")
    return cover._cover_c


@pytest.fixture(params=available_backends())
def backend(request, monkeypatch):
    """Each kernel that is built: hiding the compiled one leaves cover
    with the Python kernel."""
    if request.param == "python":
        monkeypatch.setattr(cover, "_cover_c", None)
    return request.param

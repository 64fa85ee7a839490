"""Fixtures shared by the compiled-kernel test modules."""

from __future__ import annotations

import pytest

from repro.mem import kernel


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A fresh kernel loader that finds no C compiler: memory objects built
    under it walk in Python and sample with numpy."""
    loader = kernel.KernelLoader(directory=str(tmp_path))
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(kernel, "_LOADER", loader)
    return loader

"""The public names each entrokit module lists in ``__all__``, and what importing the package loads."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import entrokit

MODULES = sorted(info.name for info in pkgutil.iter_modules(entrokit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    # a stale entry breaks ``from entrokit.<name> import *`` but not ``import``
    module = importlib.import_module(f"entrokit.{name}")
    listed = getattr(module, "__all__", [])
    assert [attr for attr in listed if not hasattr(module, attr)] == []


def test_package_import_loads_no_module():
    """``import entrokit`` sets the BLAS default and loads neither numpy nor a module of it."""
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = (
        "import os, sys; import entrokit; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('entrokit.'))); "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.splitlines() == ["[]", "1"]

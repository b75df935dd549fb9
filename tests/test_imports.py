"""What a fresh process loads: SciPy's LAPACK extension always, scipy.special only on demand."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpsf

# the child imports gpsf from the same tree as this process, installed or not
_PATH = [str(Path(gpsf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATH))}

_RUN_COMMAND = """
import sys
from gpsf.cli import main
code = main(sys.argv[1:])
print("loaded", code, "scipy.linalg" in sys.modules, "scipy.special" in sys.modules)
"""

_SAME_EXTENSION = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg.lapack as lapack
    from gpsf import kernels, prolate, quadrature
else:
    from gpsf import kernels, prolate, quadrature
    import scipy.linalg.lapack as lapack
routines = {"dsterf": prolate, "dstebz": prolate, "dstein": prolate, "dgelsy": quadrature,
            "dgttrs": kernels}
print([name for name, module in routines.items() if getattr(lapack, name) is not getattr(module, name)],
      sys.modules["scipy.linalg._flapack"] is lapack._flapack)
"""


def _child(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().split("\n")[-1]


@pytest.mark.parametrize("argv", [
    "eigs --p 0 --c 20 --N 0 --nmax 3",
    "spectrum-check --p 0 --c 20",
    "figure-data --p 0 --c 20 --N 0,1 --nmax 3",
    "roots --p 0 --c 20 --N 0 --n 5",
    "eval --p 0 --c 20 --N 0 --n 3 --r 0.1,0.5",
    "quad-cheb --p 0 --c 20 --n 14",
    "quad-gauss --p 0 --c 20 --n 10",
    "interp --p 0 --c 20 --x 0.3,0.4 --Nmax 4 --nmax 4",
])
def test_command_loads_neither_linalg_nor_special(argv):
    assert _child(_RUN_COMMAND, *argv.split()) == "loaded 0 False False"


def test_ball_integrate_loads_special_only():
    argv = "ball-integrate --p 0 --c 20 --x 0.9,0.2 --radial cheb:14 --angular 50"
    assert _child(_RUN_COMMAND, *argv.split()) == "loaded 0 False True"


@pytest.mark.parametrize("order", ["scipy-first", "gpsf-first"])
def test_one_lapack_extension_instance(order):
    assert _child(_SAME_EXTENSION, order) == "[] True"


def test_missing_extension_names_its_path(monkeypatch, tmp_path):
    import scipy

    from gpsf import kernels

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(f"SciPy's LAPACK extension is missing: {tmp_path}")):
        kernels._load_flapack()

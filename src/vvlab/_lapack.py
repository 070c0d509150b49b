"""The package's LAPACK routines, loaded without importing scipy.linalg.

``dpttrf`` and ``dpttrs`` step the Crank-Nicolson march (ns.py) and
``dgtsv`` fits the not-a-knot spline (spaces.py).  Importing
``scipy.linalg.lapack`` for them would load the whole ``scipy.linalg``
package, about half of the package's start-up time, so scipy's compiled
``_flapack`` extension is loaded from its file and registered under its
own name, ``scipy.linalg._flapack``.  Whichever of vvlab and
``scipy.linalg`` is imported first, the other reuses that module, so the
routines are ``scipy.linalg.lapack``'s own objects.  Where the file is
missing, ``scipy.linalg.lapack`` is imported instead.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_FLAPACK = "scipy.linalg._flapack"


def load(linalg_dir: str):
    """(dgtsv, dpttrf, dpttrs) from ``linalg_dir``'s ``_flapack`` extension,
    or from ``scipy.linalg.lapack`` when the directory has none."""
    base = os.path.join(linalg_dir, "_flapack")
    path = next((base + s for s in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + s)), None)
    if path is None:
        from scipy.linalg import lapack as mod
    elif _FLAPACK in sys.modules:
        mod = sys.modules[_FLAPACK]
    else:
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = mod
        spec.loader.exec_module(mod)
    return mod.dgtsv, mod.dpttrf, mod.dpttrs


dgtsv, dpttrf, dpttrs = load(os.path.join(os.path.dirname(scipy.__file__), "linalg"))

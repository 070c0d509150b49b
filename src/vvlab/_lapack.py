"""The package's LAPACK routines, loaded without importing scipy.linalg.

``dpttrf`` and ``dpttrs`` step the Crank-Nicolson march (ns.py) and
``dgtsv`` fits the not-a-knot spline (spaces.py).  Importing
``scipy.linalg.lapack`` for them would load the whole ``scipy.linalg``
package, about half of the package's start-up time, so scipy's compiled
``_flapack`` extension is loaded from its file and registered under its
own name, ``scipy.linalg._flapack``.  Whichever of vvlab and
``scipy.linalg`` is imported first, the other reuses that module, so the
three routines are ``scipy.linalg.lapack``'s own objects; when vvlab comes
first, an import hook sets it as an attribute of ``scipy.linalg`` once it
is imported.  Where the file is missing, the module is imported from the
``scipy.linalg`` package instead.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import scipy

FLAPACK = "scipy.linalg._flapack"


class _BindToPackage:
    """An import hook that sets the extension as an attribute of
    ``scipy.linalg`` once it is imported: the import system binds only the
    submodules it loads itself."""

    def find_spec(self, fullname, path, target=None):
        if fullname != "scipy.linalg":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            module._flapack = sys.modules[FLAPACK]

        spec.loader.exec_module = exec_module
        return spec


def load(linalg_dir: str):
    """(dgtsv, dpttrf, dpttrs) from ``linalg_dir``'s compiled ``_flapack``,
    registered as ``scipy.linalg._flapack``, or from the ``scipy.linalg``
    package when the directory has no such file."""
    base = os.path.join(linalg_dir, "_flapack")
    path = next((base + s for s in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + s)), None)
    if path is None:
        importlib.import_module(FLAPACK)
    elif FLAPACK not in sys.modules:
        spec = importlib.util.spec_from_file_location(FLAPACK, path)
        sys.modules[FLAPACK] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[FLAPACK])
    if "scipy.linalg" not in sys.modules:
        sys.meta_path.insert(0, _BindToPackage())
    flapack = sys.modules[FLAPACK]
    return flapack.dgtsv, flapack.dpttrf, flapack.dpttrs


dgtsv, dpttrf, dpttrs = load(os.path.join(os.path.dirname(scipy.__file__), "linalg"))

"""The package's LAPACK routines, loaded without importing scipy.linalg.

``dpttrf`` and ``dpttrs`` step the Crank-Nicolson march (ns.py) and
``dgtsv`` fits the not-a-knot spline (spaces.py).  Importing
``scipy.linalg.lapack`` for them would load the whole ``scipy.linalg``
package, about half of the package's start-up time, so scipy's compiled
``_flapack`` and ``cython_lapack`` extensions are loaded from their files
and registered under their own names, ``scipy.linalg._flapack`` and
``scipy.linalg.cython_lapack``.  Whichever of vvlab and ``scipy.linalg``
is imported first, the other reuses those modules, so ``dgtsv`` and
``dpttrf`` are ``scipy.linalg.lapack``'s own objects; when vvlab comes
first, an import hook sets them as attributes of ``scipy.linalg`` once it
is imported.  Where a file is missing, the module is imported from the
``scipy.linalg`` package instead.

``dpttrs`` is not f2py's: f2py's wrapper holds the GIL while LAPACK
solves, so two threads' solves run one after the other.  The same routine
is called through ``cython_lapack``'s function pointer with ``ctypes``,
which releases the GIL for the call; it solves in place and returns the
same bits.
"""

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from functools import partial

import scipy

from .errors import InvalidParameterError

# void dpttrs(int *n, int *nrhs, d *d, d *e, d *b, int *ldb, int *info).
# No argument types: the binding alone builds the arguments, byref ints and
# ctypes arrays, which pass as pointers as they are; declaring seven
# c_void_p took a call from 0.9-1.1 to 1.8-2.2 us at n = 8, past f2py's 0.9-1.3
_DPTTRS = ctypes.CFUNCTYPE(None)


class _BindToPackage:
    """An import hook that sets the two extensions as attributes of
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
            for name in ("_flapack", "cython_lapack"):
                setattr(module, name, sys.modules["scipy.linalg." + name])

        spec.loader.exec_module = exec_module
        return spec


def _extension(linalg_dir: str, name: str):
    """The module ``scipy.linalg.<name>`` from ``linalg_dir``'s compiled
    file, registered under that name, or imported from the package when
    the directory has no such file."""
    full = "scipy.linalg." + name
    base = os.path.join(linalg_dir, name)
    path = next((base + s for s in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + s)), None)
    if path is None:
        return importlib.import_module(full)
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[full] = mod
        spec.loader.exec_module(mod)
    return sys.modules[full]


def capsule_pointer(capsule) -> int:
    """The address a PyCapsule holds, such as a ``cython_lapack`` routine's."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return pointer(capsule, name(capsule))


def _buffer(x, name: str):
    """A ctypes array over ``x``'s memory, which keeps ``x`` alive; ``x``
    must be a float64 array contiguous in Fortran order, for LAPACK reads
    and writes it in place."""
    if not (getattr(x, "dtype", None) == "float64" and x.flags.f_contiguous
            and x.flags.writeable and x.ndim <= 2):
        raise InvalidParameterError(
            f"dpttrs: {name} must be a writeable float64 array of at most two "
            f"dimensions, contiguous in Fortran order (it is solved in place)")
    return (ctypes.c_double * x.size).from_buffer(x.ravel(order="F"))


def _binding(pointer: int):
    """``dpttrs`` at ``pointer`` (module docstring)."""
    fn = _DPTTRS(pointer)

    def dpttrs(d, e, b):
        """A call that solves B x = b in place in ``b`` each time it is
        made, B = L D L^T given by dpttrf's ``d`` (n,) and ``e`` (n - 1,);
        ``b`` is (n,) or (n, nrhs).  The call releases the GIL."""
        n = len(d)
        if len(e) != n - 1 or b.shape[:1] != (n,):
            raise InvalidParameterError(
                f"dpttrs: d, e and b have {n}, {len(e)} and {b.shape[:1]} rows")
        size = ctypes.c_int(n)
        return partial(fn, ctypes.byref(size), ctypes.byref(ctypes.c_int(b.size // n)),
                       _buffer(d, "d"), _buffer(e, "e"), _buffer(b, "b"),
                       ctypes.byref(size), ctypes.byref(ctypes.c_int()))

    dpttrs.pointer = pointer
    return dpttrs


def load(linalg_dir: str):
    """(dgtsv, dpttrf, dpttrs) from ``linalg_dir``'s extensions, or from
    the ``scipy.linalg`` package where the directory has none."""
    flapack = _extension(linalg_dir, "_flapack")
    capsule = _extension(linalg_dir, "cython_lapack").__pyx_capi__["dpttrs"]
    if "scipy.linalg" not in sys.modules:
        sys.meta_path.insert(0, _BindToPackage())
    return flapack.dgtsv, flapack.dpttrf, _binding(capsule_pointer(capsule))


dgtsv, dpttrf, dpttrs = load(os.path.join(os.path.dirname(scipy.__file__), "linalg"))

"""The six LAPACK routines parapost calls, taken from scipy's Fortran LAPACK
extension without importing the scipy.linalg package.

`import scipy.linalg` runs scipy's package init, which imports its array-API
layer and with it numpy's lazily loaded submodules; that is most of a fresh
process's start-up time.  The routines live in the one extension module
scipy.linalg._flapack, which is loaded here from scipy's directory (found
without running scipy/__init__) and registered under its own name, so a
later `import scipy.linalg` reuses it: these are the very objects
scipy.linalg.lapack exports, whichever is imported first.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack: the module already imported, or the extension
    loaded from scipy's linalg directory; an ImportError names the file
    looked for if there is none."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name=_NAME)
    path = Path(spec.submodule_search_locations[0], "linalg",
                "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"no LAPACK extension at {path}", name=_NAME,
                          path=str(path))
    loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NAME, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load_flapack()
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs

__all__ = ["dgetrf", "dgetrs", "dpotrf", "dpotrs", "dpbtrf", "dpbtrs"]

"""Exact strong metric dimension of power graphs of finite groups.

Builds finite groups from parametric families or files, constructs their
power graphs, and computes the strong metric dimension by several mutually
cross-checking methods (family closed forms, the group-theoretic clique
dispatch on the twin-reduced graph, and a generic vertex-cover oracle),
emitting minimum strong-resolving-set witnesses checked against the definition.
"""

__version__ = "0.1.0"

# Importing the package runs none of its five layers: each is put in
# sys.modules, and on the package, as a module whose source runs on the first
# read of a name it does not hold.  Each layer lists its public names once,
# in its own __all__, and once it has run they are bound here too, so that
# every later read is a plain attribute lookup.

import _thread
import sys
import types
from importlib.util import find_spec, module_from_spec

_LAYERS = ("groups", "graphs", "clique", "sdim", "corpus")
_lock = _thread.RLock()  # held while a layer runs; other threads wait on it


class _Layer(types.ModuleType):
    """A layer whose source has not run yet."""

    def __getattr__(self, name):
        with _lock:
            if type(self) is __class__:  # neither run nor running in this thread
                self.__class__ = _Running
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    self.__class__ = __class__
                    raise
                self.__class__ = types.ModuleType
                globals().update((n, vars(self)[n]) for n in self.__all__)
        return types.ModuleType.__getattribute__(self, name)


class _Running(_Layer):
    """A layer whose source is running: a name it does not hold yet is
    missing in the running thread and waited for in any other."""


for _name in _LAYERS:
    _full = f"{__name__}.{_name}"
    if _full not in sys.modules:  # a reload keeps the layer it has
        sys.modules[_full] = module_from_spec(find_spec(_full))
        sys.modules[_full].__class__ = _Layer
    globals()[_name] = sys.modules[_full]
del _name, _full, find_spec, module_from_spec


def __getattr__(name):
    """Run the layers in order until one exports `name` (PEP 562).  `__all__`
    runs them all; any other dunder name runs none."""
    if name == "__all__" or not (name.startswith("__") and name.endswith("__")):
        exported = ["__version__"]
        for layer in _LAYERS:
            exported += globals()[layer].__all__
            if name in exported:  # read from the layer, which waits if it is running
                return getattr(globals()[layer], name)
        if name == "__all__":
            globals()["__all__"] = exported
            return exported
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *sys.modules[__name__].__all__})

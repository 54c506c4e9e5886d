"""numpy, imported when the first computation reads it.

The layers take `from ._numpy import np`.  `np` is a plain module object
whose PEP 562 __getattr__ imports numpy when a name is first read, and
copies that name into np's own __dict__, so every later read is an
ordinary module attribute lookup.  `import powersdim` therefore binds
every public name without loading numpy, most of the package's import time.
"""

import types

np = types.ModuleType("powersdim._numpy.np", "numpy, imported on the first name read")


def _serve(name: str):
    import numpy

    value = getattr(numpy, name)
    setattr(np, name, value)
    return value


np.__getattr__ = _serve

"""Exact strong metric dimension of power graphs of finite groups.

Builds finite groups from parametric families or files, constructs their
power graphs, and computes the strong metric dimension by several mutually
cross-checking methods (family closed forms, the group-theoretic clique
dispatch on the twin-reduced graph, and a generic vertex-cover oracle),
emitting verified minimum strong-resolving-set witnesses.
"""

__version__ = "0.1.0"

# each layer lists its public names once, in its own __all__; all five are
# imported here, and perfbench's tracer finds them in sys.modules
from . import clique, corpus, graphs, groups, sdim
from .clique import *
from .corpus import *
from .graphs import *
from .groups import *
from .sdim import *

__all__ = ["__version__", *groups.__all__, *graphs.__all__, *clique.__all__,
           *sdim.__all__, *corpus.__all__]

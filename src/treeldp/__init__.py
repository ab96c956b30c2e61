"""treeldp: large-deviation pressure, rate functions, optimal paths, and
exact leaf/cherry/bud statistics for random tree growth chains.

The package's names are the `__all__` of chain, dist, pressure, path and
trees.  `treeldp.pressure` is the function of that name; the module is
`importlib.import_module("treeldp.pressure")`."""

from .chain import *  # noqa: F403
from .dist import *  # noqa: F403
from .pressure import *  # noqa: F403
from .path import *  # noqa: F403
from .trees import *  # noqa: F403

__version__ = "0.1.0"

"""Key theory of pure Horn functions: forward chaining, polynomial-delay
minimal-key enumeration, unique-key recognition, and the reductions between
minimum keys and target set selection.

Each module's ``__all__`` is its public API, and this package re-exports it."""

from . import core, errors, hypergraph, keygen, tss, uniqueness
from ._kernel import BACKEND
from .core import *
from .errors import *
from .hypergraph import *
from .keygen import *
from .tss import *
from .uniqueness import *

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
__all__ += core.__all__
__all__ += errors.__all__
__all__ += hypergraph.__all__
__all__ += uniqueness.__all__
__all__ += keygen.__all__
__all__ += tss.__all__

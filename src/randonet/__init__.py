"""Random-feature operator networks with a one-shot least-squares readout.

The package learns maps between function spaces from sampled input/output
pairs: a frozen random branch embedding digests the discretized input
function, a frozen random tanh trunk embeds output locations, and the only
trained parameters form a readout matrix solved in closed form by
regularized least squares. Five operator-learning benchmarks (dataset
generators, metrics, and a reproduction harness with a CLI) are included.

The package exports what its modules ``embeddings``, ``funcgen``,
``harness``, ``linalg``, ``model`` and ``problems`` export: each module's
``__all__`` is the one list of its public names.
"""

from . import embeddings, funcgen, harness, linalg, model, problems
from .embeddings import *
from .funcgen import *
from .harness import *
from .linalg import *
from .model import *
from .problems import *

__version__ = "0.1.0"

__all__ = [name for module in (embeddings, funcgen, harness, linalg, model, problems)
           for name in module.__all__] + ["__version__"]

"""Workbench for the renormalisation bookkeeping of a quasilinear
fourth-order SPDE with multiplicative noise (stochastic thin-film type).

Subpackage map:

* ``indices``   -- multiindices, gradings, population predicates, enumeration
* ``group``     -- derivations and the recentering (structure-group) map
* ``hierarchy`` -- the model hierarchy: right-hand-side expansion per index
* ``kernel``    -- Fourier-side constant-coefficient operator toolbox
* ``constants`` -- renormalisation constants in closed form, and their scalings
* ``mc``        -- Monte-Carlo checks of the first model modes
* ``cli``       -- command-line front end
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    ConsistencyError,
    NumericError,
    ResourceError,
    WorkbenchError,
)
from .indices import (  # noqa: F401
    Multiindex,
    ModelParams,
    ZERO,
    e,
    f,
    g,
    parse_multiindex,
    format_multiindex,
    homogeneity,
    bracket,
    enumerate_populated,
    renormalisation_candidates,
    choose_kappa,
)


def clear_memos():
    """Empty the process-wide memos: the enumeration layers, the hierarchy
    expansions and counter rows, and the derived series of Gamma* columns.
    Each is a pure function of its key, so clearing one costs time alone."""
    from . import group, hierarchy, indices

    indices._LAYERS.clear()
    hierarchy._right_hand_side.cache_clear()
    hierarchy._counter_row.cache_clear()
    group._BASIS_DERIVED.clear()

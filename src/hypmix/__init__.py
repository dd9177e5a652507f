"""Exact free-group computation and Monte Carlo experiments on subgroup
dynamics under random walks.

Subpackages by concern:

- freegroup: reduced words, the Cayley-tree metric, quasi-geodesic checks
- stallings: finitely generated subgroups as folded core automata
- walks: step measures, exact convolutions, seeded trajectories, drift
- transverse: power-conjugacy decisions, overlap statistics, and the
  g^n * a construction of elements transverse to given subgroups
- mixing: witness subgroups and the Monte Carlo mixing experiments
- cantor: the boundary action of F2 * S18 on the tree of rank 3 that is
  highly transitive yet misses the mixing ceiling
- harness / cli / selftest: config-driven experiment driver
"""

__version__ = "0.1.0"

from .freegroup import FreeContext, reduce_word, multiply, invert, distance  # noqa: F401
from .stallings import SubgroupAutomaton  # noqa: F401
from .walks import StepMeasure, sample_walk, drift_estimate  # noqa: F401

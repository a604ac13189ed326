"""Pin the SAT core's trajectory through a whole exploration.

A change to the SAT core that claims to alter only its speed must leave
every answer, model, decision and propagation where it was: the models
choose the children, so a different model can send exploration down a
different tree.  Each Fig. 6 workload is explored at its ``fig6_scale``
and compared against values recorded before the core's per-query caches
existed: the path count, a digest of the ordered (index, assignment,
exit code) list, and the SAT core's work counters.  The values do not
depend on ``PYTHONHASHSEED`` or on the Python version (3.10 to 3.13).
"""

import hashlib

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import WORKLOADS
from repro.spec import rv32im

#: SatSolver.statistics keys pinned per workload, in this order.
COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "neighbourhood_hits",
    "neighbourhood_misses",
    "neighbourhood_gates",
    "trail_reused_lits",
)

#: name -> (paths, ordered-path digest, counters in COUNTERS order).
PINNED = {
    "bubble-sort": (
        120, "9ccbc153440c9705", (858, 6959, 188, 110, 15, 13728, 2234),
    ),
    "insertion-sort": (
        120, "0ebe1b33eb49db52", (873, 6022, 39, 97, 22, 12400, 557),
    ),
    "base64-encode": (75, "e1a260318a4afa6f", (0, 626, 0, 74, 0, 676, 1949)),
    "uri-parser": (16, "d0b1414d60921231", (0, 2038, 0, 15, 0, 336, 348)),
    "clif-parser": (33, "d9dde8751400da72", (0, 1398, 0, 26, 0, 322, 925)),
}


def trajectory(name):
    """(path count, ordered-path digest, pinned counters) of one run."""
    spec = WORKLOADS[name]
    explorer = Explorer(BinSymExecutor(rv32im(), spec.image(spec.fig6_scale)))
    result = explorer.explore()
    hasher = hashlib.sha256()
    for path in result.paths:
        values = sorted(
            (variable.payload, value)
            for variable, value in path.assignment.values.items()
        )
        hasher.update(repr((path.index, values, path.exit_code)).encode())
    stats = explorer.solver.statistics
    return (
        result.num_paths,
        hasher.hexdigest()[:16],
        tuple(stats[key] for key in COUNTERS),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_is_pinned(name):
    assert trajectory(name) == PINNED[name]

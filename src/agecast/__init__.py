"""Average age of information for preemptive multicast status updating.

Closed-form ages for priority and non-priority receivers under
shifted-exponential service, a seeded renewal simulator that checks
them, and sweep tooling that writes plot-ready CSV files.  The names
below are the documented API; everything else is importable from its
submodule.
"""

from .order_stats import ServiceDistribution
from .simulator import SimConfig, run_simulation
from .theory import age_nonpriority, age_priority, priority_age

__version__ = "0.1.0"

__all__ = [
    "ServiceDistribution",
    "SimConfig",
    "__version__",
    "age_nonpriority",
    "age_priority",
    "priority_age",
    "run_simulation",
]

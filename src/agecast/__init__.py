"""Average age of information for preemptive multicast status updating.

Closed-form ages for priority and non-priority receivers under
shifted-exponential service, a seeded renewal simulator that checks
them, and sweep tooling that writes plot-ready CSV files.  The names
below are the documented API; everything else is importable from its
submodule.  They load on first use (PEP 562), so that importing the
package imports no numpy and ``agecast.cli`` can set its thread policy
first.
"""

import importlib

__version__ = "0.1.0"

# each documented name and the submodule that defines it
_EXPORTS = {
    "ServiceDistribution": "order_stats",
    "SimConfig": "simulator",
    "age_nonpriority": "theory",
    "age_priority": "theory",
    "priority_age": "theory",
    "run_simulation": "simulator",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

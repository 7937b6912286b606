"""Blocking analysis and pooling-gain planning for virtual base station pools.

The package re-exports nothing: the library is used by module path, as
README's "Library" section lists.
"""

from . import analytic, erlang, model, oracle, planner, simulator  # noqa: F401

__version__ = "0.1.0"

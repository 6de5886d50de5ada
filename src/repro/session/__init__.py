"""The multi-view session facade — the library's primary public API.

One :class:`Session` holds one logical database (the declared schema plus the
update stream) and any number of continuously maintained views:

>>> from repro.session import Session
>>> session = Session({"R": ("A", "B")})
>>> total = session.view("total", "Sum(R(a, b) * b)")
>>> per_a = session.view("per_a", "AggSum([a], R(a, b) * b)")
>>> session.insert("R", 1, 10)
>>> total.result(), per_a.result()
(10, {(1,): 10})

Compiled views share materialized maps through the :class:`MapCatalog`;
``view.on_change`` subscribes to result deltas; ``session.snapshot()`` /
``Session.restore`` persist and revive the whole materializer state.
"""

from repro.session.catalog import MapCatalog
from repro.session.session import SNAPSHOT_FORMAT, Session
from repro.session.views import COMPILED_BACKENDS, MaterializedView

__all__ = [
    "Session",
    "MaterializedView",
    "MapCatalog",
    "SNAPSHOT_FORMAT",
    "COMPILED_BACKENDS",
]

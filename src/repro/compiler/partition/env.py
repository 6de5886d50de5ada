"""The one place the library reads process-wide defaults from the environment.

Three knobs survive, all defaults for arguments callers may pass explicitly
(CI uses them to run the tier-1 suite under other configurations):
``REPRO_SHARDS`` (``shards=``), ``REPRO_SHARD_BACKEND`` (``shard_backend=``)
and ``REPRO_SHARD_DISPATCH`` (``dispatch=``).  No other module under
``src/repro`` touches ``os.environ``.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    "REPRO_SHARDS": "1",
    "REPRO_SHARD_BACKEND": "thread",
    "REPRO_SHARD_DISPATCH": "static",
}


def env_default(knob: str) -> str:
    """The normalized value of one ``REPRO_*`` knob (its default when unset)."""
    return os.environ.get(knob, _DEFAULTS[knob]).strip().lower()

"""The one place the library reads a process-wide default from the environment.

One knob survives: ``REPRO_SHARDS``, the default for the ``shards=``
argument callers may pass explicitly (CI sets it to run the partition
contract's suites sharded).  No other module under ``src/repro`` touches
``os.environ``.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    "REPRO_SHARDS": "1",
}


def env_default(knob: str) -> str:
    """The normalized value of one ``REPRO_*`` knob (its default when unset)."""
    return os.environ.get(knob, _DEFAULTS[knob]).strip().lower()

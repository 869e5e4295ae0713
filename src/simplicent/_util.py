"""Small shared helpers."""

from __future__ import annotations

import os

THREADS_ENV_VAR = "SIMPLICENT_THREADS"


def default_threads() -> int:
    """Worker count from the environment, defaulting to 1.  The value is
    accepted and echoed in output metadata; every kernel runs in one thread."""
    try:
        return max(1, int(os.environ.get(THREADS_ENV_VAR, "1")))
    except ValueError:
        return 1

"""Pausing the cyclic garbage collector around allocation-heavy work.

A graph build allocates one GC-tracked :class:`~repro.engine.task.Task`
per task and frees nothing, so the collector's generation counters keep
firing collections that find no garbage and rescan a heap that only
grows. :func:`gc_paused` switches the collector off for such a block.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Disable cyclic GC inside the block, then restore its prior state.

    The collector is re-enabled in ``finally`` (also when the block
    raises), and only if this call disabled it: a collector the caller
    already disabled stays disabled, and nested pauses leave the switch
    to the outermost one. Usable as a decorator: ``@gc_paused()``.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()

"""The one thread pool of the package: simulate's draw and the Allan kernel."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np


def call_each(fn, items, workers: int) -> None:
    """Call ``fn`` on each item, in the caller's thread for one worker, else
    in a pool of ``workers`` threads.  One worker starts no thread, so the
    process keeps no thread's memory arena."""
    if workers == 1:
        for item in items:
            fn(item)
        return
    # Pool threads start under numpy's default error handling; each takes the caller's.
    with ThreadPoolExecutor(workers, initializer=partial(np.seterr, **np.geterr())) as pool:
        list(pool.map(fn, items))

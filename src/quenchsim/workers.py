"""Worker threads: the split of an index range over the CPUs, and the threads that run it.

`_ranges` alone decides how many workers run and which indices each one
gets, and `_map_ranges` alone starts them: the bound loop
(`bounds.bound_monte_carlo`) and the chunk loop (`ensemble._run_chunks`)
both call the two.  One range runs inline on the calling thread; two or
more run one worker thread each while the calling thread waits, with
every OpenBLAS the caller names on one thread, so that workers that each
call BLAS do not also start BLAS threads of their own.
`concurrent.futures` is imported only when a pool starts.
"""

from __future__ import annotations

import ctypes
import os


def _ranges(n: int) -> list[range]:
    """Contiguous ranges that cover 0..n-1 in order, one per CPU and at most n (n >= 1).

    The CPUs are those of the process's affinity mask (`taskset` limits it),
    or `os.cpu_count()` where the platform has no mask.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, n)
    edges = [n * j // workers for j in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _openblas() -> list:
    """The (get, set) thread-count functions of each OpenBLAS loaded in this process.

    A library is a path in /proc/self/maps that names openblas, and its
    functions are `<prefix>_get_num_threads<suffix>` and
    `<prefix>_set_num_threads<suffix>` for the prefix `scipy_openblas` or
    `openblas` and the suffix `64_` or none.  Empty where there is no
    /proc/self/maps or no OpenBLAS, as with another BLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = sorted(
        {
            line.split()[-1]
            for line in lines
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    names = [
        (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
        for prefix in ("scipy_openblas", "openblas")
        for suffix in ("64_", "")
    ]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        pairs = [
            (getattr(lib, get), getattr(lib, set_))
            for get, set_ in names
            if hasattr(lib, get) and hasattr(lib, set_)
        ]
        found.extend(pairs[:1])
    return found


def _map_ranges(fn, ranges, libraries) -> list:
    """[fn(r) for r in ranges], on one worker thread per range when there are two or more.

    One range runs inline, on the calling thread, and starts no thread.
    Two or more each run on a worker thread of their own while the calling
    thread only waits, and every library of `libraries` (from `_openblas`)
    runs on one thread meanwhile.  That count is process-wide; each library
    gets its own back on the way out, also when a worker raises.  The
    results come in the order of `ranges`, and a worker's exception leaves
    this function only after every worker has stopped.  This is the only
    place in the package that starts a thread.
    """
    if len(ranges) == 1:
        return [fn(ranges[0])]
    from concurrent.futures import ThreadPoolExecutor

    counts = [get() for get, _ in libraries]
    try:
        for _, set_threads in libraries:
            set_threads(1)
        with ThreadPoolExecutor(len(ranges)) as pool:
            futures = [pool.submit(fn, r) for r in ranges]
            return [future.result() for future in futures]
    finally:
        for (_, set_threads), count in zip(libraries, counts):
            set_threads(count)

"""DS401/DS602 through a function-local pool import.

``repro.perf.sweep`` imports ``ProcessPoolExecutor`` inside the
function that uses it, so the process-pool stack stays out of package
import.  The pool rules must see dispatches through such a pool exactly
as through a module-level import: the lambda is a DS401, the worker
that reaches a ``global`` write one call away is a DS602.  The pool
variable's name is not one of the pool-name hints, so only the
constructor call marks it as a pool.
"""

TOTAL = 0


def _bump(x):
    global TOTAL
    TOTAL += x
    return TOTAL


def tally(x):
    return _bump(x)


def run(xs):
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor() as workers:
        doubled = list(workers.map(lambda x: 2 * x, xs))
        totals = list(workers.map(tally, xs))
    return doubled, totals

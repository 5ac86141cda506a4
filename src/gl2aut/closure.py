"""Closure of a set of states under a step map.

Orbits, generated subgroups, coset spaces and conjugacy classes are all
the set of states reachable from some seeds by repeatedly applying a step;
this module is the one worklist loop that computes them.
"""


def closure(seeds, step, key=None) -> list:
    """Every state reachable from the seeds under step, one per key.

    step(x) returns an iterable of successor states.  States with the same
    key(x) (the state itself when key is None) count as one, represented by
    the first one found.  step is called once per state found, so a step
    that raises past some number of calls bounds the search.
    """
    found = {}
    work = []
    fresh = seeds
    while True:
        for y in fresh:
            k = y if key is None else key(y)
            if k not in found:
                found[k] = y
                work.append(y)
        if not work:
            return list(found.values())
        fresh = step(work.pop())

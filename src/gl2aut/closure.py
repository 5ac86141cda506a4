"""Closure of a set of states under a step map.

Orbits, generated subgroups, coset spaces and conjugacy classes are all
the set of states reachable from some seeds by repeatedly applying a step;
this module is the one worklist loop that computes them.
"""


def closure(seeds, step, key=None, cap=None) -> list:
    """Every state reachable from the seeds under step, one per key.

    step(x) returns an iterable of successor states.  States with the same
    key(x) (the state itself when key is None) count as one, represented by
    the first one found.  Raises RuntimeError as soon as more than cap
    states are found.
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
                if cap is not None and len(found) > cap:
                    raise RuntimeError(f"more than {cap} states are reachable")
        if not work:
            return list(found.values())
        fresh = step(work.pop())

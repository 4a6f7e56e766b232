"""Pure-Python forward-chaining kernel.

Twin of the compiled extension in ``_fastclosure``; both implement the same
counter-based propagation and must return identical results.  One engine
instance is bound to one clause list; ``calls`` counts closure computations
(``closure`` and ``derives`` alike) and is the basis for the enumeration
delay instrumentation, so share an engine between threads only if you do not
care about its counter.
"""

from operator import index


class Engine:
    """Forward-chaining closures for a fixed list of (body, head) clauses.

    Work per call is linear in the total clause size: every clause keeps a
    counter of body variables not yet derived, and each derived variable
    decrements the counters of the clauses whose bodies contain it.
    """

    backend = "python"

    def __init__(self, n, bodies, heads):
        # A float index is a TypeError here, as in the compiled twin: n and
        # the heads go through operator.index before their range check.  A
        # body variable is converted only on the error path; in range,
        # ``occ[v]`` already refuses a non-integer.
        n = index(n)
        if n < 0:
            raise ValueError(f"universe size must be nonnegative, got {n}")
        if len(bodies) != len(heads):
            raise ValueError("bodies and heads must have equal length")
        self.n = n
        self.m = len(heads)
        self.calls = 0
        self._heads = checked = []
        for h in map(index, heads):
            if h < 0 or h >= n:
                raise _out_of_range(h, n)
            checked.append(h)
        self._base_count = [len(b) for b in bodies]
        self._empty_heads = [checked[i] for i, b in enumerate(bodies) if len(b) == 0]
        occ = [[] for _ in range(n)]
        for i, body in enumerate(bodies):
            for v in body:
                if v < 0 or v >= n:
                    raise _out_of_range(index(v), n)
                occ[v].append(i)
        self._occ = occ

    def closure(self, seed):
        """Return the sorted list of variables derivable from ``seed``."""
        in_f = self._chain(seed, self.n)
        return [v for v in range(self.n) if in_f[v]]

    def derives(self, seed, target):
        """True iff ``target`` is in the closure of ``seed``.

        Counts as one call, like :meth:`closure`, but chaining stops as soon
        as ``target`` is derived.
        """
        target = index(target)
        if target < 0 or target >= self.n:
            raise _out_of_range(target, self.n)
        return self._chain(seed, target) is None

    def _chain(self, seed, target):
        # Chains forward from ``seed``.  Returns None as soon as ``target`` is
        # derived, else the derived flags of the whole closure.  Flag n is
        # never set, so target=n chains to the end.  ``queue`` holds each
        # derived variable once and grows while the loop below walks it.
        # Flags are a list, not a bytearray: CPython indexes lists faster.
        self.calls += 1
        n = self.n
        in_f = [0] * (n + 1)
        queue = []
        push = queue.append
        for v in seed:
            if v < 0 or v >= n:
                raise _out_of_range(v, n)
            if not in_f[v]:
                in_f[v] = 1
                push(v)
        if in_f[target]:
            return None
        for h in self._empty_heads:
            if not in_f[h]:
                if h == target:
                    return None
                in_f[h] = 1
                push(h)
        count = self._base_count[:]
        heads = self._heads
        occ = self._occ
        for v in queue:
            for i in occ[v]:
                c = count[i] - 1
                count[i] = c
                if not c:
                    h = heads[i]
                    if not in_f[h]:
                        if h == target:
                            return None
                        in_f[h] = 1
                        push(h)
        return in_f


def _out_of_range(v, n):
    return ValueError(f"variable index {v} out of range 0..{n - 1}")

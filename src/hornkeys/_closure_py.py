"""Pure-Python forward-chaining kernel.

Twin of the compiled extension in ``_fastclosure``; both implement the same
counter-based propagation and must return identical results.  One engine
instance is bound to one clause list; ``calls`` counts closure computations
(``closure`` and ``derives`` calls, and each drop ``minimize`` tries) and is
the basis for the enumeration delay instrumentation, so share an engine
between threads only if you do not care about its counter.
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
        self._empty_heads = empty = []
        occ = [[] for _ in range(n)]
        # The bodies of the clauses with head h, for the goal-directed tests.
        by_head = [[] for _ in range(n)]
        for i, (h, body) in enumerate(zip(checked, map(tuple, bodies))):
            for v in body:
                if v < 0 or v >= n:
                    raise _out_of_range(index(v), n)
                occ[v].append(i)
            if not body:
                empty.append(h)
            by_head[h].append(body)
        self._occ = occ
        self._by_head = by_head

    def closure(self, seed):
        """Return the sorted list of variables derivable from ``seed``."""
        self.calls += 1
        in_f, queue = self._flag(seed)
        self._chain(in_f, queue, self.n)
        return [v for v in range(self.n) if in_f[v]]

    def derives(self, seed, target):
        """True iff ``target`` is in the closure of ``seed``.

        Counts as one call, like :meth:`closure`.  After the seed is checked,
        a target in the seed is True, a target that heads no clause is False,
        a target with a clause body inside the seed is True, and otherwise
        chaining stops as soon as ``target`` is derived.
        """
        target = index(target)
        if target < 0 or target >= self.n:
            raise _out_of_range(target, self.n)
        self.calls += 1
        in_f, queue = self._flag(seed)
        if in_f[target]:
            return True
        found = self._one_step(in_f, target)
        if found is None:
            return self._chain(in_f, queue, target)
        return found

    def minimize(self, seed):
        """Shrink the key ``seed`` by greedy drops in ascending order.

        Returns the sorted minimal key.  Ascending order is the one
        tie-breaking rule that makes enumeration output reproducible.  Each
        drop tried counts one call, as ``derives(cur - {v}, v)`` would; a bad
        seed raises before any call.  ``seed`` must be a key: then every
        ``cur`` is one, and ``cur - {v}`` is a key exactly when it derives v.
        """
        in_k, _ = self._flag(seed)
        key = [v for v in range(self.n) if in_k[v]]
        for v in key:
            self.calls += 1
            in_k[v] = 0
            found = self._one_step(in_k, v)
            if found is None:
                found = self._chain(in_k[:], [u for u in key if in_k[u]], v)
            if not found:
                in_k[v] = 1
        return [v for v in key if in_k[v]]

    def _flag(self, seed):
        # Checks ``seed`` and returns its flags (n + 1 of them, flag n never
        # set) and its variables, each once.  Flags are a list, not a
        # bytearray: CPython indexes lists faster.  A float is a TypeError,
        # in range or not, as in the compiled twin.
        n = self.n
        in_f = [0] * (n + 1)
        queue = []
        push = queue.append
        for v in seed:
            if v < 0 or v >= n:
                raise _out_of_range(index(v), n)
            if not in_f[v]:
                in_f[v] = 1
                push(v)
        return in_f, queue

    def _one_step(self, in_f, target):
        # The verdict on a target outside the flagged set when one step
        # decides it: False when it heads no clause, True when some clause
        # body is inside the set (an empty one included), else None.
        bodies = self._by_head[target]
        if not bodies:
            return False
        for body in bodies:
            for v in body:
                if not in_f[v]:
                    break
            else:
                return True
        return None

    def _chain(self, in_f, queue, target):
        # Chains forward from the flagged set.  Returns True as soon as
        # ``target`` is derived, else False with ``in_f`` flagging the whole
        # closure; target=n chains to the end.  ``queue`` holds each derived
        # variable once and grows while the loop below walks it.
        push = queue.append
        for h in self._empty_heads:
            if not in_f[h]:
                if h == target:
                    return True
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
                            return True
                        in_f[h] = 1
                        push(h)
        return False


def _out_of_range(v, n):
    return ValueError(f"variable index {v} out of range 0..{n - 1}")

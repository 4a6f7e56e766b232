"""Pure-Python forward-chaining kernel: the reference and fallback twin of
the compiled ``_fastclosure``, under the one contract that ``_kernel`` states.
"""

from itertools import compress
from operator import index


class Engine:
    """Forward-chaining closures for a fixed list of (body, head) clauses.

    Each call works on scratch lists of its own, in time linear in the total
    clause size: each derived variable decrements the counters of the
    distinct bodies that hold it.
    """

    def __init__(self, n, bodies, heads):
        # A float index is a TypeError here, as in the compiled twin: n and
        # the heads go through operator.index before their range check.  A
        # body variable is checked by indexing ``occ`` with it, which raises
        # for a non-integer and past n - 1; the error path then reports the
        # first bad variable in body order, as the compiled twin does.
        n = index(n)
        if n < 0:
            raise ValueError(f"universe size must be nonnegative, got {n}")
        bodies, heads = list(bodies), list(heads)
        if len(bodies) != len(heads):
            raise ValueError("bodies and heads must have equal length")
        self.n = n
        self.m = len(heads)
        checked = []
        for h in map(index, heads):
            if h < 0 or h >= n:
                raise _out_of_range(h, n)
            checked.append(h)
        # The clauses with equal non-empty body sets share one counter: a
        # group, numbered in order of its first clause.  ``_heads[g]`` is the
        # head of that clause, and ``_more[g]`` None or the heads of the
        # group's later clauses, so a group of one clause fires at no cost.
        groups = {}
        self._heads = first = []
        self._more = more = []
        self._empty_heads = empty = []
        occ = [[] for _ in range(n)]
        # The bodies of the clauses with head h, for one-step tests and expand.
        # A frozenset body is kept as it is, and is its own group key.
        by_head = [[] for _ in range(n)]
        try:
            for h, body in zip(checked, bodies):
                if body.__class__ is frozenset:
                    key = body
                else:
                    body = tuple(body)
                    key = frozenset(body)
                by_head[h].append(body)
                if not body:
                    empty.append(h)
                    continue
                g = len(first)
                if groups.setdefault(key, g) == g:
                    for v in key:
                        if v < 0:  # occ[v] would count from the end
                            raise IndexError
                        occ[v].append(g)
                    first.append(h)
                    more.append(None)
                    continue
                # Equal to a checked set, so in range; a float equal to an
                # int is still refused, as occ[v] raises for it.
                for v in body:
                    occ[v]
                g = groups[key]
                if more[g] is None:
                    more[g] = [h]
                else:
                    more[g].append(h)
        except (IndexError, TypeError):
            raise _bad_body(body, n) from None
        self._base_count = list(map(len, groups))
        # Tuples hold no spare room: a ``HornCNF`` keeps its engine for life.
        self._occ = tuple(map(tuple, occ))
        self._by_head = tuple(map(tuple, by_head))

    def closure(self, seed, /):
        """Return the sorted tuple of variables derivable from ``seed``."""
        in_f, queue = self._flag(seed)
        self._chain(in_f, queue, self.n)
        return tuple(compress(range(self.n), in_f))

    def minimize(self, seed, /):
        """Shrink the key ``seed`` by greedy drops in ascending order.

        Returns the minimal key as a sorted tuple.  Ascending order is the one
        tie-breaking rule that makes enumeration output reproducible.  A bad
        seed raises before the first drop.  ``seed`` must be a key: then
        every ``cur`` is one, and ``cur - {v}`` is a key exactly when it
        derives v.
        Drops the suffix rule settles skip the test (see ``_kernel``).
        """
        in_k, _ = self._flag(seed)
        return tuple(self._shrink(in_k, list(compress(range(self.n), in_k))))

    def expand(self, key, /):
        """The out-neighbors of the minimal key ``key``, as sorted tuples,
        the pairs tried and the closures run (see ``_kernel``).  A bad key
        raises before the first pair."""
        in_k, _ = self._flag(key)
        key = list(compress(range(self.n), in_k))
        by_head = self._by_head
        shrink = self._shrink
        out = []
        seen = set()
        tried = closures = 0
        for v in key:
            bodies = by_head[v]
            if not bodies:
                continue
            tried += len(bodies)
            in_k[v] = 0
            rest = set(key)
            rest.discard(v)
            for body in bodies:
                cur = in_k[:]
                for u in body:
                    cur[u] = 1
                seed = sorted(rest.union(body))
                closures += len(seed)
                k2 = tuple(shrink(cur, seed))
                if k2 not in seen:
                    seen.add(k2)
                    out.append(k2)
            in_k[v] = 1
        return out, tried, closures

    def _shrink(self, in_k, key):
        # The greedy drops of ``minimize`` over the ascending ``key``, whose
        # variables ``in_k`` flags; clears the flags of the dropped ones and
        # returns the rest.
        one_step = self._one_step
        free = None  # by variable, the suffix rule's verdicts once a chain is due
        for v in key:
            in_k[v] = 0
            if free and free[v]:
                continue
            found = one_step(in_k, v)
            if found is None:
                if free is None and 2 * len(key) > self.n:
                    free = self._suffix_free(key[key.index(v):])
                    if free[v]:
                        continue
                found = self._chain(in_k[:], [u for u in key if in_k[u]], v)
            if not found:
                in_k[v] = 1
        return [v for v in key if in_k[v]]

    def _suffix_free(self, suffix):
        # Flags, by variable, each u of the ascending ``suffix`` that lies in
        # the closure of the later ones (the suffix rule of the kernel
        # contract).  One closure grows from the top of ``suffix`` down, each
        # variable added once and chained on the same counters; once it holds
        # every variable, the lower flags keep their 1.
        n = self.n
        free = [1] * n
        in_c = [0] * (n + 1)
        count = self._base_count[:]
        queue = list(dict.fromkeys(self._empty_heads))
        for h in queue:
            in_c[h] = 1
        size = 0
        for u in reversed(suffix):
            self._chain(in_c, queue, n, count)
            size += len(queue)
            if size == n:
                break
            queue = []
            if not in_c[u]:
                free[u] = 0
                in_c[u] = 1
                queue.append(u)
        return free

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

    def _chain(self, in_f, queue, target, count=None):
        # Chains forward from the flagged set.  Returns True as soon as
        # ``target`` is derived, else False with ``in_f`` flagging the whole
        # closure; target=n chains to the end.  ``queue`` holds each derived
        # variable once and grows while the loop below walks it.  A given
        # ``count`` holds the counters of earlier chains on the same flags,
        # with the unit heads flagged: the chain resumes from ``queue``.
        push = queue.append
        if count is None:
            for h in self._empty_heads:
                if not in_f[h]:
                    if h == target:
                        return True
                    in_f[h] = 1
                    push(h)
            count = self._base_count[:]
        heads = self._heads
        more = self._more
        occ = self._occ
        for v in queue:
            for g in occ[v]:
                c = count[g] - 1
                count[g] = c
                if not c:
                    h = heads[g]
                    if not in_f[h]:
                        if h == target:
                            return True
                        in_f[h] = 1
                        push(h)
                    if more[g]:
                        for h in more[g]:
                            if not in_f[h]:
                                if h == target:
                                    return True
                                in_f[h] = 1
                                push(h)
        return False


def _bad_body(body, n):
    # The error for the first variable of ``body`` that is not an index in
    # range: index() raises for a non-integer.
    for v in map(index, body):
        if v < 0 or v >= n:
            return _out_of_range(v, n)


def _out_of_range(v, n):
    return ValueError(f"variable index {v} out of range 0..{n - 1}")

"""Pure-Python forward-chaining kernel.

Twin of the compiled extension in ``_fastclosure``; both implement the same
counter-based propagation and must return identical results.  One engine
instance is bound to one clause list and holds nothing else: every call
works on scratch of its own, so an engine can be shared freely, across
threads included.  ``expand`` reports the closure computations it ran,
which the enumeration's delay counters add up.  Only this twin keeps a memo
of the drop tests an expansion chained; the callable that ``expander``
returns for one walk hands each call's memo on to the next (see
``_kernel``).
"""

from operator import index

# The entries one expansion stores are capped so that their closure
# flags, n + 1 per entry, come to at most this many times the engine's size
# n + m + Σ|body|.  With no cap, an expansion whose drop tests all chain and
# fail would keep one entry per drop tried: O(m·n²) references.  Walks of
# random sparse CNFs (n = 36, m = 108) stored at most 7.04 times the size.
_MEMO_SIZES = 16


class Engine:
    """Forward-chaining closures for a fixed list of (body, head) clauses.

    Work per call is linear in the total clause size: every clause keeps a
    counter of body variables not yet derived, and each derived variable
    decrements the counters of the clauses whose bodies contain it.
    """

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
        self._heads = checked = []
        for h in map(index, heads):
            if h < 0 or h >= n:
                raise _out_of_range(h, n)
            checked.append(h)
        self._base_count = list(map(len, bodies))
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
        # Tuples hold no spare room: a ``HornCNF`` keeps its engine for life.
        self._occ = tuple(map(tuple, occ))
        self._by_head = tuple(map(tuple, by_head))
        self._memo_cap = _MEMO_SIZES * (n + self.m + sum(self._base_count)) // (n + 1)

    def closure(self, seed):
        """Return the sorted list of variables derivable from ``seed``."""
        in_f, queue = self._flag(seed)
        self._chain(in_f, queue, self.n)
        return [v for v in range(self.n) if in_f[v]]

    def derives(self, seed, target):
        """True iff ``target`` is in the closure of ``seed``.

        After the seed is checked, a target in the seed is True, a target
        that heads no clause is False, a target with a clause body inside the
        seed is True, and otherwise chaining stops as soon as ``target`` is
        derived.
        """
        target = index(target)
        if target < 0 or target >= self.n:
            raise _out_of_range(target, self.n)
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
        tie-breaking rule that makes enumeration output reproducible.  A bad
        seed raises before the first drop.  ``seed`` must be a key: then
        every ``cur`` is one, and ``cur - {v}`` is a key exactly when it
        derives v.
        Drops the suffix rule settles skip the test (see ``_kernel``).
        """
        in_k, _ = self._flag(seed)
        return self._shrink(in_k, [v for v in range(self.n) if in_k[v]])

    def expand(self, key):
        """The out-neighbors of the minimal key ``key``, as frozensets, the
        pairs tried and the closures run (see ``_kernel``).  A bad key raises
        before the first pair."""
        return self._expand(key, None)[:3]

    def expander(self):
        """A callable for one walk: each call gives what :meth:`expand`
        gives, and consults the drop-test memo of the call before it (see
        ``_kernel``).  Its results are defined only for a key argument."""
        older = None

        def expand(key):
            nonlocal older
            out, tried, closures, older = self._expand(key, older)
            return out, tried, closures

        return expand

    def _expand(self, key, older):
        # ``expand``, plus the memo of the drop tests this call chained, for
        # the next call to take as ``older``.
        memo = {}
        in_k, _ = self._flag(key)
        key = [v for v in range(self.n) if in_k[v]]
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
                k2 = frozenset(shrink(cur, seed, memo, older))
                if k2 not in seen:
                    seen.add(k2)
                    out.append(k2)
            in_k[v] = 1
        return out, tried, closures, memo

    def _shrink(self, in_k, key, memo=None, older=None):
        # The greedy drops of ``minimize`` over the ascending ``key``, whose
        # variables ``in_k`` flags; clears the flags of the dropped ones and
        # returns the rest.  ``memo`` and ``older``, when given, map each set
        # an earlier drop test chained from, as a sorted tuple, to the
        # closure flags the chain left, or to True when it derived its
        # target: a test of such a set reads its verdict there.  Each chained
        # test adds its entry to ``memo`` while it holds fewer than the cap.
        one_step = self._one_step
        cap = self._memo_cap
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
                rest = [u for u in key if in_k[u]]
                if memo is not None:
                    y = tuple(rest)
                    found = memo.get(y)
                    if found is None and older:
                        found = older.get(y)
                    if found is not None and found is not True:
                        found = found[v]
                if found is None:
                    in_f = in_k[:]
                    found = self._chain(in_f, rest, v)
                    if memo is not None and len(memo) < cap:
                        memo[y] = True if found else in_f
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

/* Compiled forward-chaining kernel.
 *
 * Twin of ``_closure_py.Engine``: the same counter-based propagation, the
 * same argument checks in the same order, and the same results for
 * identical inputs (see tests/test_kernel.py).  Built by setup.py as a plain
 * extension; it needs only the CPython C API.
 *
 * The engine owns no Python objects, only flat arrays fixed at
 * construction: the body variables in clause order, a head -> clause index,
 * and for the chains one counter per distinct body.  Clauses whose
 * non-empty bodies hold the same variables form one group, as in Beeri and
 * Bernstein's LINCLOSURE (1979): a variable -> group occurrence index, the
 * number of distinct variables of each group, and its heads in clause
 * order, which all fire when its counter reaches 0.  All are in CSR form,
 * and no call writes to them.
 * Each method takes one positional argument, an iterable of variables that
 * ``sorted_seed`` checks and lists ascending, and gives its sets as sorted
 * tuples that ``flagged_tuple`` builds.  ``closure`` chains a seed to the
 * end.  ``minimize`` runs the greedy ascending-drop loop of key
 * minimization; the suffix rule of the kernel contract in ``_kernel.py``
 * settles some drops with no test.  ``expand`` runs that loop on each
 * candidate of a minimal key, returns each distinct result and counts the
 * drops it tried.  No call keeps anything for the next: each allocates its
 * own scratch, so a seed iterable that calls back into the engine is safe.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

typedef struct {
    PyObject_HEAD
    Py_ssize_t n, m, n_empty, n_groups;
    Py_ssize_t *base_count;  /* n_groups: distinct variables of each group's body */
    Py_ssize_t *fire_start;  /* n_groups + 1: heads of group g are fire_item[fire_start[g]..fire_start[g+1]) */
    Py_ssize_t *fire_item;
    Py_ssize_t *body_start;  /* m + 1: body of i is body_item[body_start[i]..body_start[i+1]) */
    Py_ssize_t *body_item;
    Py_ssize_t *occ_start;   /* n + 1: groups of v are occ_item[occ_start[v]..occ_start[v+1]) */
    Py_ssize_t *occ_item;
    Py_ssize_t *head_start;  /* n + 1: clauses with head h are head_item[head_start[h]..head_start[h+1]) */
    Py_ssize_t *head_item;
    Py_ssize_t *empty_heads; /* n_empty: heads of the clauses with empty bodies */
} Engine;

/* The index held by ``obj``, checked against 0..n-1; -1 with an exception
 * set otherwise.  Overflow counts as out of range, as it does in the pure
 * twin. */
static Py_ssize_t
as_index(PyObject *obj, Py_ssize_t n)
{
    Py_ssize_t v = PyLong_CheckExact(obj) ? PyLong_AsSsize_t(obj)
                                          : PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (v == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (v >= 0 && v < n)
        return v;
    PyErr_Format(PyExc_ValueError, "variable index %S out of range 0..%zd", obj, n - 1);
    return -1;
}

static void
Engine_dealloc(Engine *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyMem_Free(self->base_count);
    PyMem_Free(self->fire_start);
    PyMem_Free(self->fire_item);
    PyMem_Free(self->body_start);
    PyMem_Free(self->body_item);
    PyMem_Free(self->occ_start);
    PyMem_Free(self->occ_item);
    PyMem_Free(self->head_start);
    PyMem_Free(self->head_item);
    PyMem_Free(self->empty_heads);
    tp->tp_free((PyObject *)self);
    Py_DECREF(tp);
}

/* Numbers the distinct non-empty bodies in order of their first clause:
 * sets group_of[i] (-1 for an empty body), first[g], the first clause of
 * group g, self->n_groups and self->base_count[g], the number of distinct
 * variables of g, and counts those in occ_start[v + 1].  Returns the sum of
 * the counts, or -1 when out of memory.  ``mark`` is scratch of n entries.
 * A table of at least 2m slots, probed in turn, finds the group of a body
 * from the sum of its variables' multiplicative hashes, which does not
 * depend on their order. */
static Py_ssize_t
group_bodies(Engine *self, Py_ssize_t *group_of, Py_ssize_t *first, Py_ssize_t *mark)
{
    const Py_ssize_t m = self->m, *start = self->body_start, *item = self->body_item;
    Py_ssize_t *size = self->base_count, *occ = self->occ_start, *table;
    Py_ssize_t i, k, g, v, slot, distinct, groups = 0, total = 0, mask = 1;
    uint64_t h;

    while (mask < 2 * m)
        mask <<= 1;
    if (!(table = PyMem_New(Py_ssize_t, mask)))
        return -1;
    memset(table, 0xff, mask * sizeof(Py_ssize_t)); /* every slot -1 */
    mask--;
    memset(mark, 0, self->n * sizeof(Py_ssize_t));
    for (i = 0; i < m; i++) {
        group_of[i] = -1;
        if (start[i] == start[i + 1])
            continue;
        /* mark[v] == i + 1 flags the variables of body i. */
        for (k = start[i], distinct = 0, h = 0; k < start[i + 1]; k++) {
            if (mark[v = item[k]] != i + 1) {
                mark[v] = i + 1;
                distinct++;
                h += (uint64_t)v * 0x9E3779B97F4A7C15ULL;
            }
        }
        /* A group of as many variables, each flagged, has the same body. */
        for (slot = (Py_ssize_t)(h ^ h >> 32) & mask; (g = table[slot]) >= 0; slot = (slot + 1) & mask) {
            if (size[g] != distinct)
                continue;
            for (k = start[first[g]]; k < start[first[g] + 1] && mark[item[k]] == i + 1; k++)
                ;
            if (k == start[first[g] + 1])
                break;
        }
        if (g < 0) {
            g = table[slot] = groups++;
            first[g] = i;
            size[g] = distinct;
            total += distinct;
            for (k = start[i]; k < start[i + 1]; k++) {
                if (mark[v = item[k]] == i + 1) {
                    mark[v] = 0;
                    occ[v + 1]++;
                }
            }
        }
        group_of[i] = g;
    }
    self->n_groups = groups;
    PyMem_Free(table);
    return total;
}

/* Fills the engine from lists of clause bodies and heads; 0 on success.
 * Each index is read and checked once, because ``__index__`` may run
 * Python code and need not return the same value twice. */
static int
Engine_build(Engine *self, PyObject *bodies, PyObject *heads)
{
    Py_ssize_t n = self->n, m = PyList_GET_SIZE(heads), cap = 3 * m + 1;
    Py_ssize_t i, k, g, v, occ_total;
    Py_ssize_t *head_of = NULL, *group_of = NULL, *first = NULL, *fill = NULL, *grown;
    int status = -1;

    self->m = m;
    head_of = PyMem_New(Py_ssize_t, m ? m : 1);
    group_of = PyMem_New(Py_ssize_t, m ? m : 1);
    first = PyMem_New(Py_ssize_t, m ? m : 1);
    self->base_count = PyMem_New(Py_ssize_t, m ? m : 1);
    self->body_start = PyMem_New(Py_ssize_t, m + 1);
    self->head_item = PyMem_New(Py_ssize_t, m ? m : 1);
    self->body_item = PyMem_New(Py_ssize_t, cap);
    self->fire_item = PyMem_New(Py_ssize_t, m ? m : 1);
    self->occ_start = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    self->head_start = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    fill = PyMem_New(Py_ssize_t, n ? n : 1);
    if (!head_of || !group_of || !first || !self->base_count || !self->body_start
        || !self->head_item || !self->body_item || !self->fire_item
        || !self->occ_start || !self->head_start || !fill) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < m; i++) {
        if ((head_of[i] = as_index(PyList_GET_ITEM(heads, i), n)) < 0)
            goto done;
        self->head_start[head_of[i] + 1]++;
    }
    /* The body variables, flat in clause order, read in one pass over each
     * body; their block doubles when it is full. */
    self->body_start[0] = 0;
    for (i = 0, k = 0; i < m; i++) {
        PyObject *it = PyObject_GetIter(PyList_GET_ITEM(bodies, i)), *x;
        if (!it)
            goto done;
        while ((x = PyIter_Next(it))) {
            if (k == cap) {
                if (!(grown = PyMem_Realloc(self->body_item, 2 * cap * sizeof(Py_ssize_t)))) {
                    Py_DECREF(x);
                    Py_DECREF(it);
                    PyErr_NoMemory();
                    goto done;
                }
                self->body_item = grown;
                cap *= 2;
            }
            v = as_index(x, n);
            Py_DECREF(x);
            if (v < 0) {
                Py_DECREF(it);
                goto done;
            }
            self->body_item[k++] = v;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto done;
        self->body_start[i + 1] = k;
        if (k == self->body_start[i])
            self->n_empty++;
    }
    /* The engine lives as long as its CNF: give back the unused room. */
    if ((grown = PyMem_Realloc(self->body_item, (k ? k : 1) * sizeof(Py_ssize_t))))
        self->body_item = grown;
    if (!(self->empty_heads = PyMem_New(Py_ssize_t, self->n_empty ? self->n_empty : 1))) {
        PyErr_NoMemory();
        goto done;
    }

    /* The groups, the heads of each in clause order, and the groups of
     * each variable. */
    if ((occ_total = group_bodies(self, group_of, first, fill)) < 0
        || !(self->fire_start = PyMem_Calloc(self->n_groups + 1, sizeof(Py_ssize_t)))
        || !(self->occ_item = PyMem_New(Py_ssize_t, occ_total ? occ_total : 1))) {
        PyErr_NoMemory();
        goto done;
    }
    self->n_empty = 0;
    for (i = 0; i < m; i++) {
        if (group_of[i] < 0)
            self->empty_heads[self->n_empty++] = head_of[i];
        else
            self->fire_start[group_of[i] + 1]++;
    }
    for (g = 0; g < self->n_groups; g++)
        self->fire_start[g + 1] += self->fire_start[g];
    for (v = 0; v < n; v++) {
        self->occ_start[v + 1] += self->occ_start[v];
        self->head_start[v + 1] += self->head_start[v];
    }
    /* Groups are listed in ascending order, so a variable that a body
     * repeats is already the last entry of its list. */
    memcpy(fill, self->occ_start, n * sizeof(Py_ssize_t));
    for (g = 0; g < self->n_groups; g++) {
        for (k = self->body_start[first[g]]; k < self->body_start[first[g] + 1]; k++) {
            v = self->body_item[k];
            if (fill[v] == self->occ_start[v] || self->occ_item[fill[v] - 1] != g)
                self->occ_item[fill[v]++] = g;
        }
    }
    memcpy(first, self->fire_start, self->n_groups * sizeof(Py_ssize_t));
    for (i = 0; i < m; i++) {
        if (group_of[i] >= 0)
            self->fire_item[first[group_of[i]]++] = head_of[i];
    }
    memcpy(fill, self->head_start, n * sizeof(Py_ssize_t));
    for (i = 0; i < m; i++)
        self->head_item[fill[head_of[i]]++] = i;
    status = 0;

done:
    PyMem_Free(head_of);
    PyMem_Free(group_of);
    PyMem_Free(first);
    PyMem_Free(fill);
    return status;
}

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "bodies", "heads", NULL};
    Py_ssize_t n;
    PyObject *bodies, *heads, *body_list = NULL, *head_list = NULL;
    Engine *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nOO", kwlist, &n, &bodies, &heads))
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "universe size must be nonnegative, got %zd", n);
    self = (Engine *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    self->n = n; /* the other fields start zeroed */
    body_list = PySequence_List(bodies);
    head_list = body_list ? PySequence_List(heads) : NULL;
    if (!head_list)
        goto fail;
    if (PyList_GET_SIZE(body_list) != PyList_GET_SIZE(head_list)) {
        PyErr_SetString(PyExc_ValueError, "bodies and heads must have equal length");
        goto fail;
    }
    if (Engine_build(self, body_list, head_list) < 0)
        goto fail;
    Py_DECREF(body_list);
    Py_DECREF(head_list);
    return (PyObject *)self;

fail:
    Py_XDECREF(body_list);
    Py_XDECREF(head_list);
    Py_DECREF(self);
    return NULL;
}

/* The verdict on a target outside the flagged set when one step decides
 * it: 0 when it heads no clause, 1 when some clause body is inside the set
 * (an empty one included), -1 when only chaining can tell. */
static int
one_step(const Engine *self, const unsigned char *in_f, Py_ssize_t target)
{
    Py_ssize_t j, k, i, end, first = self->head_start[target], last = self->head_start[target + 1];

    if (first == last)
        return 0;
    for (j = first; j < last; j++) {
        i = self->head_item[j];
        end = self->body_start[i + 1];
        for (k = self->body_start[i]; k < end && in_f[self->body_item[k]]; k++)
            ;
        if (k == end)
            return 1;
    }
    return -1;
}

/* Chains forward from the flagged variables in queue[0..top) (room for n),
 * stopping once ``target`` is derived; flag n is never set, so target = n
 * chains to the end.  With done = 0 the chain starts afresh: it flags the
 * unit heads and resets ``count``.  Otherwise it resumes earlier chains on
 * the same flags and counters, whose queue[0..done) is already propagated.
 * Returns 1 when ``target`` was derived, else 0 with the closure's size in
 * *size. */
static int
chain(const Engine *self, Py_ssize_t target, unsigned char *in_f, Py_ssize_t *queue,
      Py_ssize_t done, Py_ssize_t top, Py_ssize_t *count, Py_ssize_t *size)
{
    /* Locals, so that the stores to in_f and count need not reload them. */
    const Py_ssize_t *occ_start = self->occ_start, *occ_item = self->occ_item;
    const Py_ssize_t *fire_start = self->fire_start, *fire_item = self->fire_item;
    Py_ssize_t i, j, k, g, v, h, end, last;

    if (!done) {
        for (j = 0; j < self->n_empty; j++) {
            h = self->empty_heads[j];
            if (!in_f[h]) {
                if (h == target)
                    return 1;
                in_f[h] = 1;
                queue[top++] = h;
            }
        }
        memcpy(count, self->base_count, self->n_groups * sizeof(Py_ssize_t));
    }
    for (k = done; k < top; k++) {
        v = queue[k];
        for (j = occ_start[v], end = occ_start[v + 1]; j < end; j++) {
            g = occ_item[j];
            if (--count[g] != 0)
                continue;
            for (i = fire_start[g], last = fire_start[g + 1]; i < last; i++) {
                h = fire_item[i];
                if (!in_f[h]) {
                    if (h == target)
                        return 1;
                    in_f[h] = 1;
                    queue[top++] = h;
                }
            }
        }
    }
    *size = top;
    return 0;
}

/* Sets free_[i], for low <= i < nk, when key[i] lies in the closure of
 * key[i+1..nk), the suffix rule of the kernel contract.  One closure grows
 * from the top of ``key`` down in in_f, queue and count, each variable
 * added once and chained on the same counters; once it holds all n
 * variables, the lower flags stay set. */
static void
suffix_free(const Engine *self, const Py_ssize_t *key, Py_ssize_t low, Py_ssize_t nk,
            unsigned char *free_, unsigned char *in_f, Py_ssize_t *queue, Py_ssize_t *count)
{
    Py_ssize_t i = nk, done = 0, top = 0;

    memset(free_ + low, 1, nk - low);
    memset(in_f, 0, self->n + 1);
    for (;;) {
        chain(self, self->n, in_f, queue, done, top, count, &top);
        if (top == self->n || i == low)
            return;
        done = top;
        if (!in_f[key[--i]]) {
            free_[i] = 0;
            in_f[key[i]] = 1;
            queue[top++] = key[i];
        }
    }
}

/* Checks ``seed``, flags it in in_k (n + 1 flags, cleared here) and lists
 * it ascending in ``key``, with no branch: key[nk] is in bounds as nk <= v.
 * Returns its size, or -1 with an exception set. */
static Py_ssize_t
sorted_seed(const Engine *self, PyObject *seed, unsigned char *in_k, Py_ssize_t *key)
{
    Py_ssize_t v, nk = 0;
    PyObject *it, *item;

    memset(in_k, 0, self->n + 1);
    if (!(it = PyObject_GetIter(seed)))
        return -1;
    while ((item = PyIter_Next(it))) {
        v = as_index(item, self->n);
        Py_DECREF(item);
        if (v < 0) {
            Py_DECREF(it);
            return -1;
        }
        in_k[v] = 1;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    for (v = 0; v < self->n; v++) {
        key[nk] = v;
        nk += in_k[v];
    }
    return nk;
}

/* The first ``size`` variables flagged in in_f[0..n), as a sorted tuple. */
static PyObject *
flagged_tuple(const unsigned char *in_f, Py_ssize_t n, Py_ssize_t size)
{
    Py_ssize_t v, k = 0;
    PyObject *out = PyTuple_New(size), *x;

    for (v = 0; out && k < size && v < n; v++) {
        if (!in_f[v])
            continue;
        if (!(x = PyLong_FromSsize_t(v)))
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k++, x);
    }
    return out;
}

static PyObject *
Engine_closure(Engine *self, PyObject *seed)
{
    Py_ssize_t n = self->n, size = 0, top;
    /* One block: count[G], queue[n], then in_f[n + 1]. */
    Py_ssize_t words = self->n_groups + n;
    Py_ssize_t *scratch, *queue;
    unsigned char *in_f;
    PyObject *out = NULL;

    if (!(scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + n + 1)))
        return PyErr_NoMemory();
    queue = scratch + self->n_groups;
    in_f = (unsigned char *)(scratch + words);
    if ((top = sorted_seed(self, seed, in_f, queue)) >= 0) {
        chain(self, n, in_f, queue, 0, top, scratch, &size);
        out = flagged_tuple(in_f, n, size);
    }
    PyMem_Free(scratch);
    return out;
}

/* The greedy drops of ``minimize`` over key[0..nk), ascending, whose
 * variables ``in_k`` flags: clears the flags of the dropped ones and returns
 * how many stay.  in_f, free_, queue and count are scratch of n + 1, n, n
 * and G entries, G the number of body groups. */
static Py_ssize_t
shrink(const Engine *self, const Py_ssize_t *key, Py_ssize_t nk, unsigned char *in_k,
       unsigned char *in_f, unsigned char *free_, Py_ssize_t *queue, Py_ssize_t *count)
{
    Py_ssize_t n = self->n, size = nk, i, j, top, closed, v;
    int r, pass = 0;

    /* The suffix rule's flags are filled at the first drop that one step
     * cannot decide, and only for a seed of more than half the variables. */
    for (i = 0; i < nk; i++) {
        v = key[i];
        in_k[v] = 0;
        if (pass && free_[i])
            r = 1;
        else if ((r = one_step(self, in_k, v)) < 0 && !pass && 2 * nk > n) {
            pass = 1;
            suffix_free(self, key, i, nk, free_, in_f, queue, count);
            if (free_[i])
                r = 1;
        }
        if (r < 0) {
            memcpy(in_f, in_k, n + 1);
            for (j = 0, top = 0; j < nk; j++) {
                if (in_k[key[j]])
                    queue[top++] = key[j];
            }
            r = chain(self, v, in_f, queue, 0, top, count, &closed);
        }
        if (r)
            size--;
        else
            in_k[v] = 1;
    }
    return size;
}

static PyObject *
Engine_minimize(Engine *self, PyObject *seed)
{
    Py_ssize_t n = self->n, nk;
    /* One block: count[G], queue[n], key[n], then in_k[n + 1], in_f[n + 1]
     * and free_[n]. */
    Py_ssize_t words = self->n_groups + 2 * n;
    Py_ssize_t *scratch, *queue, *key;
    unsigned char *in_k, *in_f, *free_;
    PyObject *out = NULL;

    if (!(scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + 3 * n + 2)))
        return PyErr_NoMemory();
    queue = scratch + self->n_groups;
    key = queue + n;
    in_k = (unsigned char *)(scratch + words);
    in_f = in_k + n + 1;
    free_ = in_f + n + 1;
    if ((nk = sorted_seed(self, seed, in_k, key)) >= 0)
        out = flagged_tuple(in_k, n, shrink(self, key, nk, in_k, in_f, free_, queue, scratch));
    PyMem_Free(scratch);
    return out;
}

static PyObject *
Engine_expand(Engine *self, PyObject *key_obj)
{
    Py_ssize_t n = self->n, nk, ns, size, i, j, k, v, u, tried = 0, closures = 0;
    /* One block: count[G], queue[n], key[n], seed[n], then in_k[n + 1],
     * cur[n + 1], in_f[n + 1] and free_[n]. */
    Py_ssize_t words = self->n_groups + 3 * n;
    Py_ssize_t *scratch, *queue, *key, *seed;
    unsigned char *in_k, *cur, *in_f, *free_;
    PyObject *out = NULL, *seen = NULL, *k2;
    int r;

    if (!(scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + 4 * n + 3)))
        return PyErr_NoMemory();
    queue = scratch + self->n_groups;
    key = queue + n;
    seed = key + n;
    in_k = (unsigned char *)(scratch + words);
    cur = in_k + n + 1;
    in_f = cur + n + 1;
    free_ = in_f + n + 1;
    if ((nk = sorted_seed(self, key_obj, in_k, key)) < 0
        || !(out = PyList_New(0)) || !(seen = PySet_New(NULL)))
        goto fail;

    /* Each pair (v, clause A -> v) minimizes (key - {v}) | A, flagged in cur
     * and listed ascending in seed. */
    for (i = 0; i < nk; i++) {
        v = key[i];
        in_k[v] = 0;
        for (j = self->head_start[v]; j < self->head_start[v + 1]; j++, tried++) {
            k = self->head_item[j];
            memcpy(cur, in_k, n + 1);
            for (u = self->body_start[k]; u < self->body_start[k + 1]; u++)
                cur[self->body_item[u]] = 1;
            for (u = 0, ns = 0; u < n; u++) {
                if (cur[u])
                    seed[ns++] = u;
            }
            closures += ns;
            size = shrink(self, seed, ns, cur, in_f, free_, queue, scratch);
            if (!(k2 = flagged_tuple(cur, n, size)))
                goto fail;
            r = PySet_Contains(seen, k2);
            if (r == 0 && (PySet_Add(seen, k2) < 0 || PyList_Append(out, k2) < 0))
                r = -1;
            Py_DECREF(k2);
            if (r < 0)
                goto fail;
        }
        in_k[v] = 1;
    }
    Py_DECREF(seen);
    PyMem_Free(scratch);
    return Py_BuildValue("(Nnn)", out, tried, closures);

fail:
    Py_XDECREF(out);
    Py_XDECREF(seen);
    PyMem_Free(scratch);
    return NULL;
}

static PyMethodDef Engine_methods[] = {
    {"closure", (PyCFunction)(void (*)(void))Engine_closure, METH_O,
     "Return the sorted tuple of variables derivable from ``seed``."},
    {"minimize", (PyCFunction)(void (*)(void))Engine_minimize, METH_O,
     "Shrink the key ``seed`` by greedy drops in ascending order.\n\n"
     "Returns the minimal key as a sorted tuple."},
    {"expand", (PyCFunction)(void (*)(void))Engine_expand, METH_O,
     "The out-neighbors of the minimal key ``key``, with their cost.\n\n"
     "Each pair (v in key, clause A -> v) gives (key - {v}) | A, which\n"
     "minimize shrinks; returns the distinct results as sorted tuples in\n"
     "first-seen order, the number of pairs and the closures run, one per\n"
     "drop tried."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Engine_members[] = {
    {"n", T_PYSSIZET, offsetof(Engine, n), READONLY, "number of variables"},
    {"m", T_PYSSIZET, offsetof(Engine, m), READONLY, "number of clauses"},
    {NULL, 0, 0, 0, NULL},
};

static PyType_Slot Engine_slots[] = {
    {Py_tp_doc, "Forward-chaining closures for a fixed list of (body, head) clauses."},
    {Py_tp_new, Engine_new},
    {Py_tp_dealloc, Engine_dealloc},
    {Py_tp_methods, Engine_methods},
    {Py_tp_members, Engine_members},
    {0, NULL},
};

static PyType_Spec Engine_spec = {
    "hornkeys._fastclosure.Engine", sizeof(Engine), 0, Py_TPFLAGS_DEFAULT, Engine_slots,
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fastclosure", "Compiled forward-chaining kernel.", -1,
    NULL, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__fastclosure(void)
{
    PyObject *mod, *type;

    mod = PyModule_Create(&module);
    if (!mod)
        return NULL;
    type = PyType_FromSpec(&Engine_spec);
    if (!type || PyModule_AddObjectRef(mod, "Engine", type) < 0) {
        Py_XDECREF(type);
        Py_DECREF(mod);
        return NULL;
    }
    Py_DECREF(type);
    return mod;
}

/* Compiled forward-chaining kernel.
 *
 * Twin of ``_closure_py.Engine``: the same counter-based propagation, the
 * same argument checks in the same order, and the same results for
 * identical inputs (see tests/test_kernel.py).  Built by setup.py as a plain
 * extension; it needs only the CPython C API.
 *
 * The engine owns no Python objects, only flat arrays fixed at
 * construction: the head of each clause, the size of each body, the body
 * variables in clause order, a variable -> clause occurrence index and a
 * head -> clause index, all in CSR form.  No call writes to them.
 * ``derives`` answers from the seed alone when it can: True for a target in
 * the seed or with a clause body inside it, False for a target that heads no
 * clause.  ``minimize`` runs the greedy ascending-drop loop of key
 * minimization; the suffix rule of the kernel contract in ``_kernel.py``
 * settles some drops with no test.  ``expand`` runs that loop on each
 * candidate of a minimal key and counts the drops it tried.  Its chains
 * are cheap enough that a memo of earlier drop tests, as the pure twin
 * keeps, saves about what it costs, so it keeps none, and ``expander``
 * returns the bound ``expand`` itself.  Each call allocates its own
 * scratch, so a seed iterable that calls back into the engine is safe.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

typedef struct {
    PyObject_HEAD
    Py_ssize_t n, m, n_empty;
    Py_ssize_t *heads;       /* m: head of each clause */
    Py_ssize_t *base_count;  /* m: body size of each clause */
    Py_ssize_t *body_start;  /* m + 1: body of i is body_item[body_start[i]..body_start[i+1]) */
    Py_ssize_t *body_item;
    Py_ssize_t *occ_start;   /* n + 1: clauses of v are occ_item[occ_start[v]..occ_start[v+1]) */
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
    Py_ssize_t v = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
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
    PyMem_Free(self->heads);
    PyMem_Free(self->base_count);
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

/* Fills the engine from lists of clause bodies and heads; 0 on success.
 * Each index is read and checked once, because ``__index__`` may run
 * Python code and need not return the same value twice. */
static int
Engine_build(Engine *self, PyObject *bodies, PyObject *heads)
{
    Py_ssize_t n = self->n, m = PyList_GET_SIZE(heads);
    Py_ssize_t i, j, k, v, total = 0, *fill = NULL;
    int status = -1;

    self->m = m;
    self->heads = PyMem_New(Py_ssize_t, m ? m : 1);
    self->base_count = PyMem_New(Py_ssize_t, m ? m : 1);
    self->body_start = PyMem_New(Py_ssize_t, m + 1);
    self->head_item = PyMem_New(Py_ssize_t, m ? m : 1);
    self->occ_start = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    self->head_start = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    if (!self->heads || !self->base_count || !self->body_start || !self->head_item
        || !self->occ_start || !self->head_start) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < m; i++) {
        if ((self->heads[i] = as_index(PyList_GET_ITEM(heads, i), n)) < 0)
            return -1;
        self->head_start[self->heads[i] + 1]++;
    }
    self->body_start[0] = 0;
    for (i = 0; i < m; i++) {
        PyObject *body = PySequence_List(PyList_GET_ITEM(bodies, i));
        if (!body || PyList_SetItem(bodies, i, body) < 0)
            return -1;
        self->base_count[i] = PyList_GET_SIZE(body);
        total += self->base_count[i];
        self->body_start[i + 1] = total;
        if (self->base_count[i] == 0)
            self->n_empty++;
    }

    /* The body variables, flat in clause order, and their occurrence counts. */
    self->body_item = PyMem_New(Py_ssize_t, total ? total : 1);
    self->occ_item = PyMem_New(Py_ssize_t, total ? total : 1);
    self->empty_heads = PyMem_New(Py_ssize_t, self->n_empty ? self->n_empty : 1);
    fill = PyMem_New(Py_ssize_t, n ? n : 1);
    if (!self->body_item || !self->occ_item || !self->empty_heads || !fill) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0, k = 0; i < m; i++) {
        PyObject *body = PyList_GET_ITEM(bodies, i);
        for (j = 0; j < self->base_count[i]; j++, k++) {
            if ((v = as_index(PyList_GET_ITEM(body, j), n)) < 0)
                goto done;
            self->body_item[k] = v;
            self->occ_start[v + 1]++;
        }
    }
    for (v = 0; v < n; v++) {
        self->occ_start[v + 1] += self->occ_start[v];
        self->head_start[v + 1] += self->head_start[v];
    }

    memcpy(fill, self->occ_start, n * sizeof(Py_ssize_t));
    self->n_empty = 0;
    for (i = 0, k = 0; i < m; i++) {
        if (self->base_count[i] == 0)
            self->empty_heads[self->n_empty++] = self->heads[i];
        for (j = 0; j < self->base_count[i]; j++, k++)
            self->occ_item[fill[self->body_item[k]]++] = i;
    }
    memcpy(fill, self->head_start, n * sizeof(Py_ssize_t));
    for (i = 0; i < m; i++)
        self->head_item[fill[self->heads[i]]++] = i;
    status = 0;

done:
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

/* Checks ``seed`` and flags it in ``in_f`` (n + 1 zeroed flags), listing
 * each of its variables once in ``queue``.  Returns how many were listed,
 * or -1 with an exception set. */
static Py_ssize_t
flag_seed(const Engine *self, PyObject *seed, unsigned char *in_f, Py_ssize_t *queue)
{
    Py_ssize_t top = 0, v;
    PyObject *it, *item;

    it = PyObject_GetIter(seed);
    if (!it)
        return -1;
    while ((item = PyIter_Next(it))) {
        v = as_index(item, self->n);
        Py_DECREF(item);
        if (v < 0) {
            Py_DECREF(it);
            return -1;
        }
        if (!in_f[v]) {
            in_f[v] = 1;
            queue[top++] = v;
        }
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : top;
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
    Py_ssize_t i, j, k, v, h;

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
        memcpy(count, self->base_count, self->m * sizeof(Py_ssize_t));
    }
    for (k = done; k < top; k++) {
        v = queue[k];
        for (j = self->occ_start[v]; j < self->occ_start[v + 1]; j++) {
            i = self->occ_item[j];
            if (--count[i] == 0) {
                h = self->heads[i];
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

/* The variables flagged in ``in_f[0..n)`` as a sorted list of ``size``. */
static PyObject *
flagged_list(const unsigned char *in_f, Py_ssize_t n, Py_ssize_t size)
{
    Py_ssize_t v, k = 0;
    PyObject *out = PyList_New(size);

    for (v = 0; out && v < n; v++) {
        if (!in_f[v])
            continue;
        PyObject *x = PyLong_FromSsize_t(v);
        if (!x) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, k++, x);
    }
    return out;
}

/* Runs one call with fresh scratch: the closure of ``seed`` as a sorted
 * list when ``as_list``, else whether it derives ``target``. */
static PyObject *
run(const Engine *self, PyObject *seed, Py_ssize_t target, int as_list)
{
    Py_ssize_t n = self->n, size = 0, top;
    /* One block: count[m], queue[n], then in_f[n + 1]. */
    Py_ssize_t words = self->m + n;
    Py_ssize_t *scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + n + 1), *queue;
    unsigned char *in_f;
    PyObject *out = NULL;
    int r;

    if (!scratch)
        return PyErr_NoMemory();
    queue = scratch + self->m;
    in_f = (unsigned char *)(scratch + words);
    memset(in_f, 0, n + 1);
    if ((top = flag_seed(self, seed, in_f, queue)) < 0)
        r = -1;
    else if (as_list)
        r = chain(self, n, in_f, queue, 0, top, scratch, &size);
    else if (in_f[target])
        r = 1;
    else if ((r = one_step(self, in_f, target)) < 0)
        r = chain(self, target, in_f, queue, 0, top, scratch, &size);
    if (r == 1)
        out = Py_NewRef(Py_True);
    else if (r == 0 && !as_list)
        out = Py_NewRef(Py_False);
    else if (r == 0)
        out = flagged_list(in_f, n, size);
    PyMem_Free(scratch);
    return out;
}

static PyObject *
Engine_closure(Engine *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &seed))
        return NULL;
    return run(self, seed, self->n, 1);
}

static PyObject *
Engine_derives(Engine *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", "target", NULL};
    PyObject *seed, *target_obj;
    Py_ssize_t target;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO", kwlist, &seed, &target_obj))
        return NULL;
    if ((target = as_index(target_obj, self->n)) < 0)
        return NULL;
    return run(self, seed, target, 0);
}

/* The greedy drops of ``minimize`` over key[0..nk), ascending, whose
 * variables ``in_k`` flags: clears the flags of the dropped ones and returns
 * how many stay.  in_f, free_, queue and count are scratch of n + 1, n, n
 * and m entries. */
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

/* Flags ``seed`` in in_k (n + 1 zeroed flags) and lists it ascending in
 * key; returns its size, or -1 with an exception set.  ``queue`` is scratch
 * of n entries. */
static Py_ssize_t
sorted_seed(const Engine *self, PyObject *seed, unsigned char *in_k, Py_ssize_t *key,
            Py_ssize_t *queue)
{
    Py_ssize_t v, nk = 0;

    memset(in_k, 0, self->n + 1);
    if (flag_seed(self, seed, in_k, queue) < 0)
        return -1;
    for (v = 0; v < self->n; v++) {
        if (in_k[v])
            key[nk++] = v;
    }
    return nk;
}

static PyObject *
Engine_minimize(Engine *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", NULL};
    Py_ssize_t n = self->n, nk;
    /* One block: count[m], queue[n], key[n], then in_k[n + 1], in_f[n + 1]
     * and free_[n]. */
    Py_ssize_t words = self->m + 2 * n;
    Py_ssize_t *scratch, *queue, *key;
    unsigned char *in_k, *in_f, *free_;
    PyObject *seed, *out = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &seed))
        return NULL;
    if (!(scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + 3 * n + 2)))
        return PyErr_NoMemory();
    queue = scratch + self->m;
    key = queue + n;
    in_k = (unsigned char *)(scratch + words);
    in_f = in_k + n + 1;
    free_ = in_f + n + 1;
    if ((nk = sorted_seed(self, seed, in_k, key, queue)) >= 0)
        out = flagged_list(in_k, n, shrink(self, key, nk, in_k, in_f, free_, queue, scratch));
    PyMem_Free(scratch);
    return out;
}

/* The variables of key[0..nk) that ``in_k`` flags, as a frozenset. */
static PyObject *
flagged_set(const unsigned char *in_k, const Py_ssize_t *key, Py_ssize_t nk)
{
    Py_ssize_t i;
    PyObject *out = PyFrozenSet_New(NULL), *x;

    for (i = 0; out && i < nk; i++) {
        if (!in_k[key[i]])
            continue;
        if (!(x = PyLong_FromSsize_t(key[i])) || PySet_Add(out, x) < 0)
            Py_CLEAR(out);
        Py_XDECREF(x);
    }
    return out;
}

static PyObject *
Engine_expand(Engine *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"key", NULL};
    Py_ssize_t n = self->n, nk, ns, i, j, k, v, u, tried = 0, closures = 0;
    /* One block: count[m], queue[n], key[n], seed[n], then in_k[n + 1],
     * cur[n + 1], in_f[n + 1] and free_[n]. */
    Py_ssize_t words = self->m + 3 * n;
    Py_ssize_t *scratch, *queue, *key, *seed;
    unsigned char *in_k, *cur, *in_f, *free_;
    PyObject *key_obj, *out = NULL, *seen = NULL, *k2;
    int r;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &key_obj))
        return NULL;
    if (!(scratch = PyMem_Malloc(words * sizeof(Py_ssize_t) + 4 * n + 3)))
        return PyErr_NoMemory();
    queue = scratch + self->m;
    key = queue + n;
    seed = key + n;
    in_k = (unsigned char *)(scratch + words);
    cur = in_k + n + 1;
    in_f = cur + n + 1;
    free_ = in_f + n + 1;
    if ((nk = sorted_seed(self, key_obj, in_k, key, queue)) < 0
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
            shrink(self, seed, ns, cur, in_f, free_, queue, scratch);
            if (!(k2 = flagged_set(cur, seed, ns)))
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

static PyObject *
Engine_expander(Engine *self, PyObject *Py_UNUSED(ignored))
{
    return PyObject_GetAttrString((PyObject *)self, "expand");
}

static PyMethodDef Engine_methods[] = {
    {"closure", (PyCFunction)(void (*)(void))Engine_closure, METH_VARARGS | METH_KEYWORDS,
     "Return the sorted list of variables derivable from ``seed``."},
    {"derives", (PyCFunction)(void (*)(void))Engine_derives, METH_VARARGS | METH_KEYWORDS,
     "True iff ``target`` is in the closure of ``seed``.\n\n"
     "A target in the seed or with a clause body inside it is True, one\n"
     "that heads no clause is False; otherwise chaining stops as soon as\n"
     "``target`` is derived."},
    {"minimize", (PyCFunction)(void (*)(void))Engine_minimize, METH_VARARGS | METH_KEYWORDS,
     "Shrink the key ``seed`` by greedy drops in ascending order.\n\n"
     "Returns the sorted minimal key."},
    {"expand", (PyCFunction)(void (*)(void))Engine_expand, METH_VARARGS | METH_KEYWORDS,
     "The out-neighbors of the minimal key ``key``, with their cost.\n\n"
     "Each pair (v in key, clause A -> v) gives (key - {v}) | A, which\n"
     "minimize shrinks; returns the distinct results as frozensets in\n"
     "first-seen order, the number of pairs and the closures run, one per\n"
     "drop tried."},
    {"expander", (PyCFunction)Engine_expander, METH_NOARGS,
     "A callable for one walk that gives what expand gives: the bound\n"
     "expand itself, as this kernel keeps no memo between calls."},
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

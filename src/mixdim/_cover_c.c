/* Compiled branch-and-bound kernel for minimum hitting set.
 *
 * Mirror of mixdim._cover_py: the same greedy start, forced picks,
 * disjoint-set bound, branching on the smallest set with the same
 * tie-breaking, and the same stripped masks (a branch clears the elements
 * of its earlier siblings from every set).  Both kernels visit the same
 * search tree and return identical results and node counts; this one
 * holds each set in one 64-bit word, so it takes universes of at most 64
 * elements.
 *
 * The two differ only in where a node's work happens.  Here a parent tests
 * each child over its own sets before it copies the child's: the
 * disjoint-set bound stops as soon as it refutes the child, which then
 * counts as one node with no copy and no call.  The forced picks are taken
 * before that test, as in the Python kernel: the root's singletons before
 * the search starts, and below the root those of the last child, the only
 * one with singletons, together with its branch element.  So a node's own
 * sets hold no empty set and no singleton, and it only looks for the set
 * to branch on.  With a deadline, time.monotonic (looked up when solve is
 * called) is read every 4096 nodes, as in the Python kernel.  Uses the
 * GCC/Clang bit builtins: the extension is optional, and without it the
 * Python kernel runs.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

#define STATUS_OPTIMAL 0
#define STATUS_CUTOFF 1
#define STATUS_TIMEOUT 2
#define TIME_CHECK_MASK 0xFFFull /* _cover_py._TIME_CHECK_MASK */
#define MAX_UNIVERSE 64
/* node buffers per search, one per depth: a node d levels down has at
   least d elements and gets a copy of its sets only while that count is
   below the best size, which the greedy start makes at most 64 */
#define LEVELS (MAX_UNIVERSE + 1)

typedef struct {
    int best_size;
    int have_best;
    u64 best_mask;
    int stop_size;
    PyObject *clock;    /* time.monotonic, NULL without a deadline */
    PyObject *deadline;
    u64 nodes;
    int stopped;        /* 1 past the deadline, -1 when the clock raised */
    u64 *arena;         /* LEVELS buffers of cap masks each */
    Py_ssize_t cap;
} Search;

/* Max-coverage greedy, ties to the smallest element; returns the size and
   stores the chosen elements.  masks are nonzero; scratch holds n words. */
static int greedy(const u64 *masks, Py_ssize_t n, u64 *scratch, u64 *out)
{
    Py_ssize_t remaining = n, i;
    u64 chosen = 0;
    int size = 0;
    memcpy(scratch, masks, (size_t)n * sizeof(u64));
    while (remaining > 0) {
        u64 all = 0, best_bit = 0, x;
        Py_ssize_t best_c = 0;
        for (i = 0; i < remaining; i++)
            all |= scratch[i];
        for (x = all; x; x &= x - 1) {
            u64 bit = x & (~x + 1);
            Py_ssize_t c = 0;
            for (i = 0; i < remaining; i++)
                c += (scratch[i] & bit) != 0;
            if (c > best_c) {
                best_c = c;
                best_bit = bit;
            }
        }
        chosen |= best_bit;
        size++;
        for (i = 0; i < remaining;) {
            if (scratch[i] & best_bit)
                scratch[i] = scratch[--remaining];
            else
                i++;
        }
    }
    *out = chosen;
    return size;
}

/* Count one node; returns 1 when the search should unwind because the
   deadline has passed or the clock raised. */
static int count_node(Search *st)
{
    st->nodes++;
    if (st->clock != NULL && !(st->nodes & TIME_CHECK_MASK)) {
        PyObject *now = PyObject_CallNoArgs(st->clock);
        int past = now == NULL ? -1 : PyObject_RichCompareBool(now, st->deadline, Py_GT);
        Py_XDECREF(now);
        if (past) {
            st->stopped = past;
            return 1;
        }
    }
    return 0;
}

/* The root test of a node before its sets are copied: its sets are
   m & keep for the n masks m that miss hit, with count elements chosen.
   Pairwise-disjoint sets each need their own element, so 1 as soon as
   they fill the room below the best size. */
static int refuted(const Search *st, const u64 *masks, Py_ssize_t n, u64 hit, u64 keep, int count)
{
    int lb = 0, room = st->best_size - count;
    u64 acc = 0;
    Py_ssize_t i;
    if (room <= 0)
        return 1;
    for (i = 0; i < n; i++) {
        u64 m = masks[i] & keep;
        if (!(masks[i] & hit) && !(m & acc)) {
            if (++lb >= room)
                return 1;
            acc |= m;
        }
    }
    return 0;
}

/* DFS over the n masks at masks, none of them empty or a singleton;
   returns 1 when the search should unwind (stop size reached, deadline
   passed or clock error). */
static int search(Search *st, const u64 *masks, Py_ssize_t n, int level, u64 chosen, int count)
{
    Py_ssize_t i, w;
    int pick_pc = MAX_UNIVERSE + 1;
    u64 pick = 0, keep = ~0ull, x, *child;
    if (count_node(st))
        return 1;
    if (n == 0) {
        st->best_size = count;
        st->best_mask = chosen;
        st->have_best = 1;
        return count <= st->stop_size;
    }

    /* branch on the smallest set (ties: smallest mask value); keep clears
       the elements of earlier siblings, banned in later branches */
    for (i = 0; i < n; i++) {
        int pc = __builtin_popcountll(masks[i]);
        if (pc < pick_pc || (pc == pick_pc && masks[i] < pick)) {
            pick = masks[i];
            pick_pc = pc;
        }
    }
    child = st->arena + (size_t)(level + 1) * (size_t)st->cap;
    for (x = pick; x; x &= x - 1) {
        u64 bit = x & (~x + 1), hit = bit;
        int size;
        /* every set holds pick_pc or more elements, so only the last child,
           which bans all of pick but bit, leaves sets with one element:
           its forced picks, taken along with bit */
        if (x == bit) {
            for (i = 0; i < n; i++) {
                u64 m = masks[i] & keep;
                if (!(masks[i] & bit) && !(m & (m - 1)))
                    hit |= m;
            }
        }
        size = count + __builtin_popcountll(hit);
        if (refuted(st, masks, n, hit, keep, size)) {
            if (count_node(st))
                return 1;
        } else {
            for (i = w = 0; i < n; i++) { /* branch-free: faster than testing each set */
                child[w] = masks[i] & keep;
                w += !(masks[i] & hit);
            }
            if (search(st, child, w, level + 1, chosen | hit, size))
                return 1;
        }
        keep ^= bit;
    }
    return 0;
}

static PyObject *solve(PyObject *Py_UNUSED(self), PyObject *args)
{
    int universe, stop_size, size;
    PyObject *masks_obj, *cutoff_obj, *deadline, *seq, *result = NULL;
    long cutoff = 0;
    Py_ssize_t n, i;
    u64 *buf = NULL, g_mask = 0, picks = 0;
    Search st;

    if (!PyArg_ParseTuple(args, "iOOiO:solve", &universe, &masks_obj, &cutoff_obj, &stop_size, &deadline))
        return NULL;
    if (universe > MAX_UNIVERSE)
        return PyErr_Format(PyExc_ValueError, "compiled kernel supports universes up to %d elements", MAX_UNIVERSE);
    if (cutoff_obj != Py_None && (cutoff = PyLong_AsLong(cutoff_obj)) == -1 && PyErr_Occurred())
        return NULL;
    /* no cover has more than 64 elements: clamping keeps every verdict */
    cutoff = cutoff < -1 ? -1 : cutoff > MAX_UNIVERSE ? MAX_UNIVERSE : cutoff;
    seq = PySequence_Fast(masks_obj, "masks must be a sequence");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n == 0) {
        Py_DECREF(seq);
        return Py_BuildValue("(iiii)", STATUS_OPTIMAL, 0, 0, 0);
    }

    memset(&st, 0, sizeof st);
    st.best_size = cutoff_obj != Py_None ? (int)cutoff + 1 : universe + 1;
    st.stop_size = stop_size;
    st.deadline = deadline;
    st.cap = n;
    /* LEVELS node buffers, the root's first, then the greedy's scratch */
    buf = PyMem_Malloc((size_t)(LEVELS + 1) * (size_t)n * sizeof(u64));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    st.arena = buf;
    for (i = 0; i < n; i++) {
        buf[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (buf[i] == (u64)-1 && PyErr_Occurred())
            goto done;
        if (buf[i] == 0) {
            PyErr_SetString(PyExc_ValueError, "masks must be nonzero");
            goto done;
        }
    }
    if (deadline != Py_None) {
        PyObject *time = PyImport_ImportModule("time");
        st.clock = time == NULL ? NULL : PyObject_GetAttrString(time, "monotonic");
        Py_XDECREF(time);
        if (st.clock == NULL)
            goto done;
    }

    size = greedy(buf, n, buf + (size_t)LEVELS * (size_t)n, &g_mask);
    if (size < st.best_size) {
        st.best_size = size;
        st.best_mask = g_mask;
        st.have_best = 1;
        if (size <= stop_size) {
            result = Py_BuildValue("(iiKi)", STATUS_OPTIMAL, size, g_mask, 0);
            goto done;
        }
    }
    /* the root's singletons are its forced picks */
    for (i = 0; i < n; i++)
        if (!(buf[i] & (buf[i] - 1)))
            picks |= buf[i];
    size = __builtin_popcountll(picks);
    if (refuted(&st, buf, n, picks, ~0ull, size)) {
        count_node(&st);
    } else {
        Py_ssize_t w = 0;
        for (i = 0; i < n; i++)
            if (!(buf[i] & picks))
                buf[w++] = buf[i];
        search(&st, buf, w, 0, picks, size);
    }
    if (st.stopped < 0)
        goto done; /* the clock raised: propagate its exception */
    if (st.stopped)
        result = Py_BuildValue("(iiiK)", STATUS_TIMEOUT, 0, 0, st.nodes);
    else if (!st.have_best || (cutoff_obj != Py_None && st.best_size > cutoff))
        result = Py_BuildValue("(iiiK)", STATUS_CUTOFF, 0, 0, st.nodes);
    else
        result = Py_BuildValue("(iiKK)", STATUS_OPTIMAL, st.best_size, st.best_mask, st.nodes);
done:
    Py_XDECREF(st.clock);
    PyMem_Free(buf);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"solve", solve, METH_VARARGS,
     "solve(universe, masks, cutoff, stop_size, deadline) -> (status, size, mask, nodes)\n\n"
     "Exact minimum hitting set over bitmask sets; see mixdim._cover_py.solve."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_cover_c",
    .m_doc = "Compiled twin of mixdim._cover_py for universes up to 64 elements.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__cover_c(void)
{
    return PyModule_Create(&module);
}

/* Compiled cache walk: MemoryHierarchy.access / _access_line in C.
 *
 * A line-for-line transliteration of the scalar reference walk in
 * hierarchy.py for LRU and FIFO machines: per-core L1/L2, the shared
 * L3, the MESI directory with its per-line invalidation log, the L2
 * stream prefetcher with its prefetched-line set, and the two-level
 * DTLB with page-split translation. Random replacement draws from
 * Python's RNG and never comes here.
 *
 * Cache state lives in arrays the Python side owns (kernel.py): each
 * set keeps its tags in recency order, head evicted first, exactly like
 * SetAssociativeCache's lists. Counters are int64 slots in one array,
 * at offsets the Python side chooses. This file keeps only what Python
 * never reads directly: the directory and prefetched-set hash tables,
 * the prefetcher stream tables and the invalidation log.
 *
 * Built by kernel.py with `cc -O2 -shared -fPIC`; no Python headers.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* -- one set-associative level (cache or TLB) --------------------------- */

typedef struct {
    int64_t *tags;   /* num_sets x ways, each set in recency order */
    int64_t *fill;   /* resident entries per set */
    int64_t *ctr;    /* hits, misses, evictions */
    int64_t mask;
    int64_t ways;
    int lru;
} level_t;

/* SetAssociativeCache.access: 1 on hit; a miss allocates. */
static int level_access(level_t *lv, int64_t line)
{
    int64_t set = line & lv->mask;
    int64_t *t = lv->tags + set * lv->ways;
    int64_t n = lv->fill[set];
    for (int64_t i = n - 1; i >= 0; i--) {
        if (t[i] == line) {
            lv->ctr[0]++;
            if (lv->lru && i != n - 1) {
                memmove(t + i, t + i + 1, (size_t)(n - 1 - i) * sizeof *t);
                t[n - 1] = line;
            }
            return 1;
        }
    }
    lv->ctr[1]++;
    if (n >= lv->ways) {
        memmove(t, t + 1, (size_t)(n - 1) * sizeof *t);
        n--;
        lv->ctr[2]++;
    }
    t[n] = line;
    lv->fill[set] = n + 1;
    return 0;
}

static int64_t level_find(const level_t *lv, int64_t line, int64_t **set_tags)
{
    int64_t set = line & lv->mask;
    int64_t *t = lv->tags + set * lv->ways;
    int64_t n = lv->fill[set];
    *set_tags = t;
    for (int64_t i = n - 1; i >= 0; i--)
        if (t[i] == line)
            return i;
    return -1;
}

/* SetAssociativeCache.fill: 1 and *evicted set when a line left. */
static int level_fill(level_t *lv, int64_t line, int64_t *evicted)
{
    int64_t *t;
    if (level_find(lv, line, &t) >= 0)
        return 0;
    int64_t set = line & lv->mask;
    int64_t n = lv->fill[set];
    int out = 0;
    if (n >= lv->ways) {
        *evicted = t[0];
        memmove(t, t + 1, (size_t)(n - 1) * sizeof *t);
        n--;
        lv->ctr[2]++;
        out = 1;
    }
    t[n] = line;
    lv->fill[set] = n + 1;
    return out;
}

static void level_invalidate(level_t *lv, int64_t line)
{
    int64_t *t;
    int64_t i = level_find(lv, line, &t);
    if (i < 0)
        return;
    int64_t set = line & lv->mask;
    int64_t n = lv->fill[set];
    memmove(t + i, t + i + 1, (size_t)(n - 1 - i) * sizeof *t);
    lv->fill[set] = n - 1;
}

/* -- open-addressing hash table: line -> three core bitmasks ------------ */

#define EMPTY INT64_MIN

typedef struct {
    int64_t key;
    uint64_t v[3];
} slot_t;

typedef struct {
    slot_t *slots;
    size_t cap;   /* power of two, or 0 before the first insert */
    size_t used;
} table_t;

static size_t home_of(const table_t *tb, int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ull;
    return (size_t)(h ^ (h >> 31)) & (tb->cap - 1);
}

static slot_t *tab_find(table_t *tb, int64_t key)
{
    if (tb->cap == 0)
        return NULL;
    for (size_t i = home_of(tb, key);; i = (i + 1) & (tb->cap - 1)) {
        if (tb->slots[i].key == key)
            return &tb->slots[i];
        if (tb->slots[i].key == EMPTY)
            return NULL;
    }
}

static int tab_grow(table_t *tb)
{
    size_t cap = tb->cap ? 2 * tb->cap : 1024;
    slot_t *slots = malloc(cap * sizeof *slots);
    if (slots == NULL)
        return -1;
    for (size_t i = 0; i < cap; i++)
        slots[i].key = EMPTY;
    slot_t *old = tb->slots;
    size_t old_cap = tb->cap;
    tb->slots = slots;
    tb->cap = cap;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].key == EMPTY)
            continue;
        size_t j = home_of(tb, old[i].key);
        while (slots[j].key != EMPTY)
            j = (j + 1) & (cap - 1);
        slots[j] = old[i];
    }
    free(old);
    return 0;
}

/* The slot for key, created zeroed if absent (dict.setdefault). */
static slot_t *tab_insert(table_t *tb, int64_t key)
{
    slot_t *s = tab_find(tb, key);
    if (s != NULL)
        return s;
    if (2 * (tb->used + 1) > tb->cap && tab_grow(tb) != 0)
        return NULL;
    size_t i = home_of(tb, key);
    while (tb->slots[i].key != EMPTY)
        i = (i + 1) & (tb->cap - 1);
    s = &tb->slots[i];
    s->key = key;
    s->v[0] = s->v[1] = s->v[2] = 0;
    tb->used++;
    return s;
}

/* Backward-shift deletion keeps every probe chain unbroken. */
static void tab_remove(table_t *tb, slot_t *s)
{
    size_t mask = tb->cap - 1;
    size_t hole = (size_t)(s - tb->slots);
    for (size_t j = (hole + 1) & mask; tb->slots[j].key != EMPTY;
         j = (j + 1) & mask) {
        size_t home = home_of(tb, tb->slots[j].key);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            tb->slots[hole] = tb->slots[j];
            hole = j;
        }
    }
    tb->slots[hole].key = EMPTY;
    tb->used--;
}

/* -- the machine -------------------------------------------------------- */

typedef struct {
    level_t l1, l2, tlb1, tlb2;
    int64_t *pf;        /* prefetches issued, prefetches later demanded */
    int64_t *heads;     /* stream table: head lines in insertion order */
    int64_t *counts;    /* ... and their confirmation counts */
    int64_t n_heads;
} core_t;

typedef struct {
    int64_t ncores, line_bits, page_bits, coherent, has_tlb;
    int64_t degree, threshold, table_size;
    double l1_lat, l2_lat, l3_lat, dram_lat, c2c_lat, upg_lat;
    double tlb_l2_lat, walk_lat;
    core_t *cores;
    level_t l3;
    int64_t *glob;      /* dram, invalidations, writebacks, c2c, upgrades */
    table_t dir;        /* line -> {modified, exclusive, shared} core masks */
    table_t prefetched; /* line -> cores that prefetched it, not yet demanded */
    int64_t *log;       /* one line per invalidation, in order */
    int64_t log_len, log_cap;
    int oom;
} machine_t;

enum { DRAM, INVALIDATIONS, WRITEBACKS, C2C, UPGRADES };

static void log_invalidation(machine_t *m, int64_t line)
{
    if (m->log_len == m->log_cap) {
        int64_t cap = m->log_cap ? 2 * m->log_cap : 256;
        int64_t *log = realloc(m->log, (size_t)cap * sizeof *log);
        if (log == NULL) {
            m->oom = 1;
            return;
        }
        m->log = log;
        m->log_cap = cap;
    }
    m->log[m->log_len++] = line;
}

static void prefetched_add(machine_t *m, int64_t c, int64_t line)
{
    slot_t *s = tab_insert(&m->prefetched, line);
    if (s == NULL) {
        m->oom = 1;
        return;
    }
    s->v[0] |= 1ull << c;
}

/* set.discard; returns whether the line was there. */
static int prefetched_discard(machine_t *m, int64_t c, int64_t line)
{
    if (m->prefetched.used == 0)
        return 0;
    slot_t *s = tab_find(&m->prefetched, line);
    if (s == NULL || !(s->v[0] & (1ull << c)))
        return 0;
    s->v[0] &= ~(1ull << c);
    if (s->v[0] == 0)
        tab_remove(&m->prefetched, s);
    return 1;
}

/* MESIDirectory.read: extra latency of a read fill. */
static double dir_read(machine_t *m, int64_t c, int64_t line)
{
    slot_t *h = tab_insert(&m->dir, line);
    if (h == NULL) {
        m->oom = 1;
        return 0.0;
    }
    uint64_t me = 1ull << c;
    uint64_t held = h->v[0] | h->v[1] | h->v[2];
    double extra = 0.0;
    uint64_t dirty = h->v[0] & ~me;
    if (dirty) {
        int64_t n = __builtin_popcountll(dirty);
        m->glob[WRITEBACKS] += n;
        m->glob[C2C] += n;
        extra = m->c2c_lat;
    }
    /* Remote M/E copies drop to Shared; this core ends Exclusive only
     * when the line had no holder at all (itself included). */
    h->v[2] |= (h->v[0] | h->v[1]) & ~me;
    h->v[0] = 0;
    h->v[1] = 0;
    if (held == 0)
        h->v[1] = me;
    else
        h->v[2] |= me;
    return extra;
}

/* MESIDirectory.write: extra latency of taking ownership. */
static double dir_write(machine_t *m, int64_t c, int64_t line)
{
    slot_t *h = tab_insert(&m->dir, line);
    if (h == NULL) {
        m->oom = 1;
        return 0.0;
    }
    uint64_t me = 1ull << c;
    if (h->v[0] & me)
        return 0.0;
    double extra = 0.0;
    uint64_t others = (h->v[0] | h->v[1] | h->v[2]) & ~me;
    uint64_t dirty = h->v[0] & others;
    if (dirty) {
        int64_t n = __builtin_popcountll(dirty);
        m->glob[WRITEBACKS] += n;
        m->glob[C2C] += n;
        if (m->c2c_lat > extra)
            extra = m->c2c_lat;
    }
    for (uint64_t rest = others; rest; rest &= rest - 1) {
        m->glob[INVALIDATIONS]++;
        log_invalidation(m, line);
    }
    if (h->v[2] & me) {
        m->glob[UPGRADES]++;
        if (m->upg_lat > extra)
            extra = m->upg_lat;
    }
    h->v[0] = me;
    h->v[1] = 0;
    h->v[2] = 0;
    return extra;
}

/* MESIDirectory.evict */
static void dir_evict(machine_t *m, int64_t c, int64_t line)
{
    slot_t *h = tab_find(&m->dir, line);
    if (h == NULL)
        return;
    uint64_t me = 1ull << c;
    if (h->v[0] & me)
        m->glob[WRITEBACKS]++;
    h->v[0] &= ~me;
    h->v[1] &= ~me;
    h->v[2] &= ~me;
    if ((h->v[0] | h->v[1] | h->v[2]) == 0)
        tab_remove(&m->dir, h);
}

static void heads_remove(core_t *core, int64_t i)
{
    int64_t tail = core->n_heads - 1 - i;
    memmove(core->heads + i, core->heads + i + 1, (size_t)tail * sizeof(int64_t));
    memmove(core->counts + i, core->counts + i + 1, (size_t)tail * sizeof(int64_t));
    core->n_heads--;
}

/* StreamPrefetcher.observe_miss: 1 when the stream is confirmed and
 * lines line+1 .. line+degree are to be prefetched. The table is a
 * dict in insertion order; reassigning a key keeps its position. */
static int observe_miss(machine_t *m, core_t *core, int64_t line)
{
    int64_t count = 0;
    for (int64_t i = 0; i < core->n_heads; i++) {
        if (core->heads[i] == line) {
            count = core->counts[i];
            heads_remove(core, i);
            break;
        }
    }
    count++;
    int confirmed = count >= m->threshold;
    int64_t head = confirmed ? line + m->degree + 1 : line + 1;
    if (confirmed)
        core->pf[0] += m->degree;
    int64_t i = 0;
    while (i < core->n_heads && core->heads[i] != head)
        i++;
    if (i == core->n_heads) {
        core->heads[i] = head;
        core->n_heads++;
    }
    core->counts[i] = count;
    if (core->n_heads > m->table_size)
        heads_remove(core, 0);
    return confirmed;
}

/* MemoryHierarchy._access_line */
static double access_line(machine_t *m, int64_t c, int64_t line, int write)
{
    core_t *core = &m->cores[c];
    double extra = 0.0;
    int64_t evicted;
    if (write && m->coherent) {
        slot_t *h = tab_find(&m->dir, line);
        if (h != NULL) {
            /* Purge remote copies, then take ownership (S/I -> M). */
            uint64_t others = (h->v[0] | h->v[1] | h->v[2]) & ~(1ull << c);
            for (; others; others &= others - 1) {
                int64_t o = __builtin_ctzll(others);
                level_invalidate(&m->cores[o].l1, line);
                level_invalidate(&m->cores[o].l2, line);
                prefetched_discard(m, o, line);
            }
        }
        extra = dir_write(m, c, line);
    }

    if (level_access(&core->l1, line))
        return m->l1_lat + extra;
    if (level_access(&core->l2, line)) {
        if (prefetched_discard(m, c, line))
            core->pf[1]++;
        level_fill(&core->l1, line, &evicted);
        return m->l2_lat + extra;
    }

    /* L2 miss: consult the streamer before going to L3. */
    if (m->degree > 0 && observe_miss(m, core, line)) {
        for (int64_t k = 0; k < m->degree; k++) {
            int64_t pf_line = line + 1 + k;
            int64_t *t;
            if (level_find(&m->l3, pf_line, &t) < 0) {
                m->glob[DRAM]++;
                level_fill(&m->l3, pf_line, &evicted);
            }
            int out = level_fill(&core->l2, pf_line, &evicted);
            prefetched_add(m, c, pf_line);
            if (out)
                prefetched_discard(m, c, evicted);
        }
    }

    double latency;
    if (level_access(&m->l3, line)) {
        latency = m->l3_lat;
    } else {
        m->glob[DRAM]++;
        latency = m->dram_lat;
    }
    if (m->coherent && !write)
        extra += dir_read(m, c, line);
    if (level_fill(&core->l2, line, &evicted)) {
        prefetched_discard(m, c, evicted);
        if (m->coherent)
            dir_evict(m, c, evicted);
    }
    level_fill(&core->l1, line, &evicted);
    return latency + extra;
}

static double translate(machine_t *m, core_t *core, int64_t page)
{
    if (level_access(&core->tlb1, page))
        return 0.0;
    if (level_access(&core->tlb2, page))
        return m->tlb_l2_lat;
    return m->walk_lat;
}

/* MemoryHierarchy.access. The last byte's line and page are taken in
 * 128 bits, so address + size - 1 is exact as in Python's unbounded
 * ints: near 2**63 it does not wrap, and size 0 at an aligned address
 * touches the previous line (line -1 at address 0). */
static double access1(machine_t *m, int64_t c, int64_t address, int64_t size,
                      int write)
{
    __int128 last_byte = (__int128)address + size - 1;
    int64_t first = address >> m->line_bits;
    int64_t last = (int64_t)(last_byte >> m->line_bits);
    double latency = access_line(m, c, first, write);
    if (last != first) {
        /* A split access touches the next line too; the observed
         * latency is the slower of the two halves. */
        double other = access_line(m, c, last, write);
        if (other > latency)
            latency = other;
    }
    if (m->has_tlb) {
        core_t *core = &m->cores[c];
        int64_t page = address >> m->page_bits;
        double penalty = translate(m, core, page);
        if (last != first) {
            int64_t last_page = (int64_t)(last_byte >> m->page_bits);
            if (last_page != page) {
                double other = translate(m, core, last_page);
                if (other > penalty)
                    penalty = other;
            }
        }
        latency += penalty;
    }
    return latency;
}

/* -- entry points ------------------------------------------------------- */

enum {  /* geom[] */
    G_NCORES, G_LINE_BITS, G_PAGE_BITS, G_COHERENT, G_HAS_TLB, G_DEGREE,
    G_THRESHOLD, G_TABLE_SIZE, G_LRU, G_PF_OFF, G_GLOB_OFF, G_LEN
};
enum {  /* lat[] */
    L_L1, L_L2, L_L3, L_DRAM, L_C2C, L_UPGRADE, L_TLB_L2, L_WALK, L_LEN
};
/* levels[]: one row per level, core c's L1, L2, TLB1, TLB2 at rows
 * 4c .. 4c+3 and the L3 last; a row is (tag offset, fill offset,
 * counter offset, set count, ways). */
enum { R_TAGS, R_FILL, R_CTR, R_SETS, R_WAYS, R_LEN };

static void bind_level(level_t *lv, const int64_t *row, int lru, int64_t *tags,
                       int64_t *fill, int64_t *ctr)
{
    lv->tags = tags + row[R_TAGS];
    lv->fill = fill + row[R_FILL];
    lv->ctr = ctr + row[R_CTR];
    lv->mask = row[R_SETS] - 1;
    lv->ways = row[R_WAYS];
    lv->lru = lru;
}

void walk_free(machine_t *m)
{
    if (m == NULL)
        return;
    if (m->cores != NULL) {
        for (int64_t c = 0; c < m->ncores; c++) {
            free(m->cores[c].heads);
            free(m->cores[c].counts);
        }
    }
    free(m->cores);
    free(m->dir.slots);
    free(m->prefetched.slots);
    free(m->log);
    free(m);
}

machine_t *walk_new(const int64_t *geom, const double *lat,
                    const int64_t *levels, int64_t *tags, int64_t *fill,
                    int64_t *ctr)
{
    machine_t *m = calloc(1, sizeof *m);
    if (m == NULL)
        return NULL;
    m->ncores = geom[G_NCORES];
    m->line_bits = geom[G_LINE_BITS];
    m->page_bits = geom[G_PAGE_BITS];
    m->coherent = geom[G_COHERENT];
    m->has_tlb = geom[G_HAS_TLB];
    m->degree = geom[G_DEGREE];
    m->threshold = geom[G_THRESHOLD];
    m->table_size = geom[G_TABLE_SIZE];
    m->l1_lat = lat[L_L1];
    m->l2_lat = lat[L_L2];
    m->l3_lat = lat[L_L3];
    m->dram_lat = lat[L_DRAM];
    m->c2c_lat = lat[L_C2C];
    m->upg_lat = lat[L_UPGRADE];
    m->tlb_l2_lat = lat[L_TLB_L2];
    m->walk_lat = lat[L_WALK];
    m->glob = ctr + geom[G_GLOB_OFF];
    m->cores = calloc((size_t)m->ncores, sizeof *m->cores);
    if (m->cores == NULL) {
        walk_free(m);
        return NULL;
    }
    int lru = (int)geom[G_LRU];
    for (int64_t c = 0; c < m->ncores; c++) {
        core_t *core = &m->cores[c];
        const int64_t *row = levels + 4 * c * R_LEN;
        bind_level(&core->l1, row, lru, tags, fill, ctr);
        bind_level(&core->l2, row + R_LEN, lru, tags, fill, ctr);
        /* The DTLB levels are always LRU. */
        bind_level(&core->tlb1, row + 2 * R_LEN, 1, tags, fill, ctr);
        bind_level(&core->tlb2, row + 3 * R_LEN, 1, tags, fill, ctr);
        core->pf = ctr + geom[G_PF_OFF] + 2 * c;
        core->heads = malloc((size_t)(m->table_size + 1) * sizeof(int64_t));
        core->counts = malloc((size_t)(m->table_size + 1) * sizeof(int64_t));
        if (core->heads == NULL || core->counts == NULL) {
            walk_free(m);
            return NULL;
        }
    }
    bind_level(&m->l3, levels + 4 * m->ncores * R_LEN, lru, tags, fill, ctr);
    return m;
}

/* Latency column of n accesses; threads map to cores modulo ncores.
 * is_write and thread may be NULL (all reads on core 0). Returns 0, or
 * -1 when a table could not grow (the state is then unusable). */
int walk(machine_t *m, int64_t n, const int64_t *address, const int64_t *size,
         const int64_t *is_write, const int64_t *thread, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t c = 0;
        if (thread != NULL) {
            c = thread[i] % m->ncores;
            if (c < 0)
                c += m->ncores;
        }
        out[i] = access1(m, c, address[i], size[i],
                         is_write != NULL && is_write[i] != 0);
    }
    return m->oom ? -1 : 0;
}

/* One access on a known core; NaN when a table could not grow. */
double walk_one(machine_t *m, int64_t core, int64_t address, int64_t size,
                int write)
{
    double latency = access1(m, core, address, size, write);
    return m->oom ? __builtin_nan("") : latency;
}

int64_t walk_log_len(const machine_t *m)
{
    return m->log_len;
}

const int64_t *walk_log(const machine_t *m)
{
    return m->log;
}

/* -- importing the Python walk's state ------------------------------------
 * A hierarchy that walked some accesses in Python before its first batch
 * hands over the state this file keeps; kernel.py copies the tags and
 * counters into the shared arrays itself. Each returns 0, or -1 when a
 * table could not grow. */

/* n directory rows (line, modified, exclusive, shared core masks). */
int walk_load_directory(machine_t *m, int64_t n, const int64_t *rows)
{
    for (int64_t i = 0; i < n; i++, rows += 4) {
        slot_t *s = tab_insert(&m->dir, rows[0]);
        if (s == NULL)
            return -1;
        s->v[0] = (uint64_t)rows[1];
        s->v[1] = (uint64_t)rows[2];
        s->v[2] = (uint64_t)rows[3];
    }
    return 0;
}

/* n prefetched-set rows (line, mask of the cores that prefetched it). */
int walk_load_prefetched(machine_t *m, int64_t n, const int64_t *rows)
{
    for (int64_t i = 0; i < n; i++, rows += 2) {
        slot_t *s = tab_insert(&m->prefetched, rows[0]);
        if (s == NULL)
            return -1;
        s->v[0] = (uint64_t)rows[1];
    }
    return 0;
}

/* One core's stream table: n (head, count) rows in insertion order. */
int walk_load_streams(machine_t *m, int64_t c, int64_t n, const int64_t *rows)
{
    core_t *core = &m->cores[c];
    if (n > m->table_size)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        core->heads[i] = rows[2 * i];
        core->counts[i] = rows[2 * i + 1];
    }
    core->n_heads = n;
    return 0;
}

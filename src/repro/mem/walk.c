/* Batched memory-hierarchy walk over the flat per-level arrays of
 * repro.mem.cache.SetAssocArray, and the segment sampler that feeds it.
 *
 * One routine (level_access) is the set-associative level: flush
 * reconciliation, lookup, empty-way choice, victim choice, fill, recency
 * bump and counters.  hh_walk drives it through L1 TLB -> L2 TLB ->
 * L1I/L1D -> L2 -> LLC -> DRAM for a whole batch.  Both reproduce the
 * Python reference (SetAssocArray.access, CoreMemory.access) exactly; the
 * DRAM EWMA keeps Python's operation order and must be compiled with
 * -ffp-contract=off so the doubles match bit for bit.
 *
 * hh_draw and hh_build (at the end) sample a segment's accesses into
 * prebound buffers, bit-identical to the vectorised numpy sampler.
 *
 * Struct layouts mirror the ctypes structures in repro/mem/kernel.py.
 */
#include <stdint.h>

enum { POL_LRU = 0, POL_HARDHARVEST = 1, POL_RRIP = 2 };
enum { M_EPOCH = 0, M_HITS, M_MISSES, M_EVICTIONS, M_WRITEBACKS, M_TOUCHED };
enum { RRPV_MAX = 3 };

typedef struct {                /* one SetAssocArray */
    int64_t *tags, *stamp;      /* rows x ways */
    uint8_t *valid, *shared, *dirty, *rrpv;   /* rows x ways; rrpv RRIP only */
    int64_t *clock, *seen;      /* per row */
    int64_t *row;               /* per set: row + 1, 0 = never touched */
    int64_t *log;               /* per row: its set index */
    int64_t *flushed_at, *meta;               /* per way; per array */
    int64_t ways, policy;
    uint64_t harvest;           /* HardHarvest harvest-region ways */
} level_t;

typedef struct {                /* one level as seen by one core */
    level_t *lv;
    int64_t gshift, smask, tshift;  /* set = (a >> gshift) & smask, tag = a >> tshift */
    uint64_t mask[2];           /* allowed ways: [primary, harvest VM] */
    int64_t win[2];             /* HardHarvest window M per mask */
    int64_t lat[3];             /* ns of a hit here by translation outcome */
} step_t;

typedef struct {
    int64_t accesses;
    double avg_gap_ns;
    int64_t last_access_ns, access_ns;
    double saturation_gap_ns;
} dram_t;

typedef struct {
    step_t l1tlb, l2tlb, l1i, l1d, l2, mem;   /* mem: only lat is used */
    dram_t *dram;
} core_t;

const char *hh_source_sha(void) { return HH_SOURCE_SHA; }

static void bump(level_t *L, int64_t r, int64_t i)
{
    L->stamp[i] = ++L->clock[r];
}

/* Eviction victim when every allowed way is valid; -1 if none allowed. */
static int64_t victim_full(const level_t *L, int64_t base, uint64_t allowed,
                           int sh, int64_t win)
{
    const int64_t W = L->ways;
    const int64_t *stamp = L->stamp + base;
    int64_t w, best = -1;
    if (!allowed)
        return -1;
    if (L->policy == POL_LRU) {
        for (w = 0; w < W; w++)
            if ((allowed >> w & 1) && (best < 0 || stamp[w] < stamp[best]))
                best = w;
        return best;
    }
    if (L->policy == POL_RRIP) {
        uint8_t *rrpv = L->rrpv + base;
        for (;;) {
            for (w = 0; w < W; w++)
                if ((allowed >> w & 1) && rrpv[w] >= RRPV_MAX)
                    return w;
            for (w = 0; w < W; w++)
                if (allowed >> w & 1)
                    rrpv[w]++;
        }
    }
    /* Algorithm 1: stable sort of the allowed ways by stamp, keep the M
     * oldest, then the first private entry of the preferred region, then
     * of the other, else the LRU candidate. */
    int64_t cand[64], n = 0, k, pass;
    for (w = 0; w < W; w++) {
        if (!(allowed >> w & 1))
            continue;
        for (k = n++; k > 0 && stamp[cand[k - 1]] > stamp[w]; k--)
            cand[k] = cand[k - 1];
        cand[k] = w;
    }
    if (win < n)
        n = win;
    for (pass = 0; pass < 2; pass++) {
        uint64_t want = (uint64_t)(sh ? pass : 1 - pass);
        for (k = 0; k < n; k++)
            if ((L->harvest >> cand[k] & 1) == want && !L->shared[base + cand[k]])
                return cand[k];
    }
    return cand[0];
}

/* One access to one level: 1 = hit, 0 = miss (filled), -1 = no allowed way. */
static int level_access(const step_t *s, int64_t addr, int sh, int h, int wr)
{
    level_t *L = s->lv;
    const int64_t W = L->ways, si = (addr >> s->gshift) & s->smask;
    const int64_t tag = addr >> s->tshift;
    const uint64_t allowed = s->mask[h];
    int64_t *meta = L->meta, r = L->row[si] - 1, w, victim;
    uint64_t vmask = 0, empty;

    if (r < 0) {                            /* first touch: the next row */
        r = meta[M_TOUCHED]++;
        L->row[si] = r + 1;
        L->log[r] = si;
        L->seen[r] = meta[M_EPOCH] + 1;
    }
    const int64_t base = r * W;
    int64_t *tags = L->tags + base;
    uint8_t *valid = L->valid + base, *dirty = L->dirty + base;
    if (L->seen[r] <= meta[M_EPOCH]) {      /* ways flushed since */
        const int64_t seen = L->seen[r] - 1;
        for (w = 0; w < W; w++) {
            if (valid[w] && L->flushed_at[w] > seen) {
                valid[w] = 0;
                if (dirty[w]) {
                    dirty[w] = 0;
                    meta[M_WRITEBACKS]++;
                }
            }
        }
        L->seen[r] = meta[M_EPOCH] + 1;
    }

    for (w = 0; w < W; w++) {
        if (!valid[w])
            continue;
        vmask |= 1ULL << w;
        if (tags[w] == tag && (allowed >> w & 1)) {
            meta[M_HITS]++;
            if (wr)
                dirty[w] = 1;
            bump(L, r, base + w);
            if (L->policy == POL_RRIP)
                L->rrpv[base + w] = 0;
            return 1;
        }
    }

    meta[M_MISSES]++;
    empty = allowed & ~vmask;
    if (empty) {
        if (L->policy == POL_HARDHARVEST) {
            uint64_t pref = sh ? empty & ~L->harvest : empty & L->harvest;
            if (pref)
                empty = pref;
        }
        victim = __builtin_ctzll(empty);
    } else {
        victim = victim_full(L, base, allowed, sh, s->win[h]);
        if (victim < 0)
            return -1;
    }
    if (valid[victim]) {
        meta[M_EVICTIONS]++;
        if (dirty[victim])
            meta[M_WRITEBACKS]++;
    }
    tags[victim] = tag;
    valid[victim] = 1;
    L->shared[base + victim] = (uint8_t)sh;
    dirty[victim] = (uint8_t)wr;
    bump(L, r, base + victim);
    if (L->policy == POL_RRIP)
        L->rrpv[base + victim] = RRPV_MAX - 1;
    return 0;
}

/* DramModel.access_latency, same operation order. */
static int64_t dram_latency(dram_t *d, int64_t now)
{
    int64_t gap = now - d->last_access_ns;
    d->accesses++;
    if (gap < 0)
        gap = 0;
    d->last_access_ns = now;
    d->avg_gap_ns = 0.99 * d->avg_gap_ns + 0.01 * (double)gap;
    if (d->avg_gap_ns < d->saturation_gap_ns) {
        double avg = 1e-9 > d->avg_gap_ns ? 1e-9 : d->avg_gap_ns;
        double pressure = d->saturation_gap_ns / avg - 1.0;
        if (!(pressure < 1.0))
            pressure = 1.0;
        return (int64_t)((double)d->access_ns * (1.0 + 2.0 * pressure));
    }
    return d->access_ns;
}

/* Walk n accesses; returns the summed ns, or -1 if a level had no allowed
 * way (the caller raises).  h selects the harvest-VM way masks. */
int64_t hh_walk(const core_t *c, const step_t *llc, const int64_t *addr,
                const uint8_t *shared, const uint8_t *instr,
                const uint8_t *write, int64_t n, int64_t now, int64_t h)
{
    int64_t i, total = 0;
    for (i = 0; i < n; i++) {
        const int64_t a = addr[i];
        const int sh = shared[i];
        const step_t *l1 = instr[i] ? &c->l1i : &c->l1d;
        int r, t;
        if ((r = level_access(&c->l1tlb, a, sh, (int)h, 0)) < 0)
            return -1;
        t = 0;
        if (!r) {
            if ((r = level_access(&c->l2tlb, a, sh, (int)h, 0)) < 0)
                return -1;
            t = r ? 1 : 2;          /* L2 TLB hit, else page walk */
        }
        if ((r = level_access(l1, a, sh, (int)h, write[i])) < 0)
            return -1;
        if (r) {
            total += l1->lat[t];
            continue;
        }
        if ((r = level_access(&c->l2, a, sh, (int)h, 0)) < 0)
            return -1;
        if (r) {
            total += c->l2.lat[t];
            continue;
        }
        if (llc) {
            if ((r = level_access(llc, a, sh, 0, 0)) < 0)
                return -1;
            if (r) {
                total += llc->lat[t];
                continue;
            }
        }
        total += c->mem.lat[t] + dram_latency(c->dram, now);
    }
    return total;
}

/* ------------------------------------------------------------------ *
 * Segment sampling (repro.workloads.memory_profile)
 *
 * hh_draw consumes a numpy Generator's bit generator exactly as the
 * vectorised sample() does: rng.random(n) for the class draw, then for
 * the page draw, rng.integers(0, max_line + 1, n) for the line, and
 * rng.random(n) for the write draw.  The caller raises the page draw to
 * the skew with numpy (libm pow and numpy's SIMD pow differ in the last
 * bit), then hh_build turns the draws into addresses and flags.
 * ------------------------------------------------------------------ */

typedef struct {                /* numpy/random/bitgen.h */
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct {                /* one sampler's buffers for one n */
    int64_t n;
    uint32_t max_line;          /* lines - 1: numpy's closed range */
    double *u;                  /* 3n draws: class, page, write */
    int64_t *line;
    int64_t *addr;              /* the AccessBatch arrays */
    uint8_t *shared, *instr, *write;
} draw_t;

typedef struct {                /* a sampler's three address classes */
    double lim[2];              /* class 0 below lim[0], 1 below lim[1], else 2 */
    double write_below;         /* a write if its draw is below this */
    int64_t page_bytes, line_bytes;
    int64_t base[3];            /* region start address */
    int64_t last[3];            /* region pages - 1 */
    double pages[3];            /* region pages, as numpy's float64 */
    uint8_t shared[3], instr[3];
} classes_t;

/* numpy's buffered_bounded_lemire_uint32: a draw in [0, rng]. */
static uint32_t bounded_lemire(bitgen_t *bg, uint32_t rng)
{
    const uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Fill d's draw buffers; the caller holds the generator's lock. */
void hh_draw(bitgen_t *bg, const draw_t *d)
{
    const int64_t n = d->n;
    double *u = d->u;
    int64_t i;
    for (i = 0; i < 2 * n; i++)
        u[i] = bg->next_double(bg->state);
    /* random_bounded_uint64_fill: no draw for a one-value range, plain
     * 32-bit draws for the full one. */
    for (i = 0; i < n; i++)
        d->line[i] = d->max_line == 0 ? 0
            : d->max_line == UINT32_MAX ? bg->next_uint32(bg->state)
            : bounded_lemire(bg, d->max_line);
    for (i = 2 * n; i < 3 * n; i++)
        u[i] = bg->next_double(bg->state);
}

/* The vectorised sample() body after the draws, element by element. */
void hh_build(const draw_t *d, const classes_t *c)
{
    const int64_t n = d->n;
    const double *kind = d->u, *page_u = d->u + n, *wu = d->u + 2 * n;
    int64_t i;
    for (i = 0; i < n; i++) {
        const int k = kind[i] < c->lim[0] ? 0 : kind[i] < c->lim[1] ? 1 : 2;
        int64_t page = (int64_t)(page_u[i] * c->pages[k]);
        if (page > c->last[k])
            page = c->last[k];
        d->addr[i] = c->base[k] + page * c->page_bytes + d->line[i] * c->line_bytes;
        d->shared[i] = c->shared[k];
        d->instr[i] = c->instr[k];
        d->write[i] = wu[i] < c->write_below && !c->shared[k];
    }
}

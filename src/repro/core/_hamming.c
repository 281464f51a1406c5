/* XOR + popcount Hamming distances over a word-major block of sketches.
 *
 * Word w of database row i is at words[w * word_stride + i]; query q's
 * words are queries[q * n_words .. q * n_words + n_words).  Rows are
 * taken in tiles of TILE: every query row visits a tile while it is in
 * cache, so the block is read from memory once, with no intermediates.
 * Built with -O3 -march=native, the inner loop vectorizes (VPOPCNTQ
 * where the CPU has AVX-512 VPOPCNTDQ).  Loaded through ctypes, which
 * releases the GIL for the call.
 *
 * hamming_block writes every distance; hamming_topk keeps only each
 * query row's k nearest live rows, so no distance row is ever built.
 */
#include <stddef.h>
#include <stdint.h>

#define TILE 2048
#define CHUNK 32

/* The one XOR-popcount loop: distances from query to the n rows that
 * start at words (word w at words[w * word_stride + i]). */
static inline void tile_distances(const uint64_t *words, ptrdiff_t word_stride,
                                  ptrdiff_t n_words, ptrdiff_t n,
                                  const uint64_t *query, uint32_t *total)
{
    for (ptrdiff_t i = 0; i < n; i++)
        total[i] = 0;
    for (ptrdiff_t w = 0; w < n_words; w++) {
        const uint64_t *row = words + w * word_stride;
        const uint64_t x = query[w];
        for (ptrdiff_t i = 0; i < n; i++)
            total[i] += (uint32_t)__builtin_popcountll(row[i] ^ x);
    }
}

/* Distances go to out[q * out_stride + i]. */
void hamming_block(const uint64_t *words, ptrdiff_t word_stride,
                   ptrdiff_t n_words, ptrdiff_t n_rows,
                   const uint64_t *queries, ptrdiff_t n_queries,
                   uint32_t *out, ptrdiff_t out_stride)
{
    for (ptrdiff_t start = 0; start < n_rows; start += TILE) {
        ptrdiff_t n = n_rows - start < TILE ? n_rows - start : TILE;
        for (ptrdiff_t q = 0; q < n_queries; q++)
            tile_distances(words + start, word_stride, n_words, n,
                           queries + q * n_words, out + q * out_stride + start);
    }
}

/* Max-heap on (distance, row): entry a sorts after entry b. */
static inline int after(uint32_t da, int64_t ra, uint32_t db, int64_t rb)
{
    return da > db || (da == db && ra > rb);
}

static void sift_up(uint32_t *d, int64_t *r, ptrdiff_t i)
{
    while (i > 0) {
        ptrdiff_t parent = (i - 1) / 2;
        if (!after(d[i], r[i], d[parent], r[parent]))
            break;
        uint32_t td = d[i]; d[i] = d[parent]; d[parent] = td;
        int64_t tr = r[i]; r[i] = r[parent]; r[parent] = tr;
        i = parent;
    }
}

static void sift_down(uint32_t *d, int64_t *r, ptrdiff_t size)
{
    ptrdiff_t i = 0;
    for (;;) {
        ptrdiff_t top = i, left = 2 * i + 1, right = left + 1;
        if (left < size && after(d[left], r[left], d[top], r[top]))
            top = left;
        if (right < size && after(d[right], r[right], d[top], r[top]))
            top = right;
        if (top == i)
            break;
        uint32_t td = d[i]; d[i] = d[top]; d[top] = td;
        int64_t tr = r[i]; r[i] = r[top]; r[top] = tr;
        i = top;
    }
}

/* Each query row's k nearest live rows by (distance, row), in heap
 * order: rows to out_rows[q * k ..], distances to out_dists[q * k ..].
 * dead[i] is 1 for a tombstoned row (NULL: none is); a dead row reads
 * as distance UINT32_MAX, above every real one, and is never admitted.
 * *fill is the entries each query row got: min(k, live rows).
 *
 * Rows arrive in ascending order, so a row enters a full heap only on a
 * strictly smaller distance than the root's: ties at the k-th distance
 * go to the smallest rows.  A 32-row chunk whose minimum is not below
 * the admission bound is skipped whole; that test vectorizes, and once
 * the heap is full it skips nearly every chunk. */
void hamming_topk(const uint64_t *words, ptrdiff_t word_stride,
                  ptrdiff_t n_words, ptrdiff_t n_rows, const uint8_t *dead,
                  const uint64_t *queries, ptrdiff_t n_queries, ptrdiff_t k,
                  int64_t *out_rows, uint32_t *out_dists, ptrdiff_t *fill)
{
    uint32_t tot[TILE];
    ptrdiff_t size = 0;
    for (ptrdiff_t start = 0; start < n_rows; start += TILE) {
        ptrdiff_t n = n_rows - start < TILE ? n_rows - start : TILE;
        ptrdiff_t filled = size;
        for (ptrdiff_t q = 0; q < n_queries; q++) {
            uint32_t *hd = out_dists + q * k;
            int64_t *hr = out_rows + q * k;
            tile_distances(words + start, word_stride, n_words, n,
                           queries + q * n_words, tot);
            if (dead)
                for (ptrdiff_t i = 0; i < n; i++)
                    tot[i] |= -(uint32_t)dead[start + i];
            /* Every query row sees the same live rows, so its heap
             * holds as many entries as every other row's. */
            size = filled;
            uint32_t bound = size == k ? hd[0] : UINT32_MAX;
            for (ptrdiff_t c = 0; c < n; c += CHUNK) {
                ptrdiff_t end = n - c < CHUNK ? n : c + CHUNK;
                uint32_t low = UINT32_MAX;
                for (ptrdiff_t i = c; i < end; i++)
                    low = tot[i] < low ? tot[i] : low;
                if (low >= bound)
                    continue;
                for (ptrdiff_t i = c; i < end; i++) {
                    if (tot[i] >= bound)
                        continue;
                    if (size < k) {
                        hd[size] = tot[i];
                        hr[size] = start + i;
                        sift_up(hd, hr, size++);
                    } else {
                        hd[0] = tot[i];
                        hr[0] = start + i;
                        sift_down(hd, hr, k);
                    }
                    bound = size == k ? hd[0] : UINT32_MAX;
                }
            }
        }
    }
    *fill = size;
}

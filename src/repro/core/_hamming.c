/* XOR + popcount Hamming distances over a word-major block of sketches.
 *
 * Word w of database row i is at words[w * word_stride + i]; query q's
 * words are queries[q * n_words .. q * n_words + n_words).  Distances go
 * to out[q * out_stride + i].  Rows are taken in tiles of TILE: every
 * query row visits a tile while it is in cache, so the block is read
 * from memory once, with no intermediates.  Built with -O3
 * -march=native, the inner loop vectorizes (VPOPCNTQ where the CPU has
 * AVX-512 VPOPCNTDQ).  Loaded through ctypes, which releases the GIL
 * for the call.
 */
#include <stddef.h>
#include <stdint.h>

#define TILE 2048

void hamming_block(const uint64_t *words, ptrdiff_t word_stride,
                   ptrdiff_t n_words, ptrdiff_t n_rows,
                   const uint64_t *queries, ptrdiff_t n_queries,
                   uint32_t *out, ptrdiff_t out_stride)
{
    for (ptrdiff_t start = 0; start < n_rows; start += TILE) {
        ptrdiff_t n = n_rows - start < TILE ? n_rows - start : TILE;
        for (ptrdiff_t q = 0; q < n_queries; q++) {
            const uint64_t *query = queries + q * n_words;
            uint32_t *total = out + q * out_stride + start;
            for (ptrdiff_t i = 0; i < n; i++)
                total[i] = 0;
            for (ptrdiff_t w = 0; w < n_words; w++) {
                const uint64_t *row = words + w * word_stride + start;
                const uint64_t x = query[w];
                for (ptrdiff_t i = 0; i < n; i++)
                    total[i] += (uint32_t)__builtin_popcountll(row[i] ^ x);
            }
        }
    }
}

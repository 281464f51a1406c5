/* Exact EMD kernels: the l1 ground-distance block, the transportation
 * simplex, and the ranking cascade built on them.
 *
 * The first two are the package's only implementation of each.  The cost
 * block sums in numpy's pairwise order, and the simplex reproduces the
 * all-numpy reference solver of tests/core/test_transport.py bit for
 * bit: the same double operations in the same order, built with
 * -ffp-contract=off so that no fused multiply-add changes a rounding.
 * rank_topk runs ranking.rank_candidates_many's cascade in one call; its
 * distances are solve_transport's bits, its bound only has to stay a
 * lower bound.  Loaded through ctypes, which
 * releases the GIL for the call.  Matrices are read in place through
 * element strides.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* ---------------------------------------------------------------------
 * l1 costs
 * ------------------------------------------------------------------ */

#define PW_BLOCK 128 /* numpy's PW_BLOCKSIZE */

/* numpy's pairwise sum of a block of at most PW_BLOCK terms: a plain
 * loop below 8 terms, else 8 accumulators combined as a tree, then the
 * tail. */
static double block_sum(const double *t, ptrdiff_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += t[i];
        return res;
    }
    double r[8];
    for (int k = 0; k < 8; k++)
        r[k] = t[k];
    ptrdiff_t i;
    for (i = 8; i < n - (n % 8); i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += t[i + k];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += t[i];
    return res;
}

/* Sum over k in [lo, lo + n) of |a[k] - b[k]| (* w[k]), split in halves
 * that are multiples of 8 above PW_BLOCK terms, as numpy's pairwise sum
 * splits; each leaf's terms are formed on the stack. */
static double l1_sum(const double *a, ptrdiff_t as, const double *b, ptrdiff_t bs,
                     const double *w, ptrdiff_t ws, ptrdiff_t lo, ptrdiff_t n)
{
    if (n > PW_BLOCK) {
        ptrdiff_t n2 = n / 2;
        n2 -= n2 % 8;
        return l1_sum(a, as, b, bs, w, ws, lo, n2)
             + l1_sum(a, as, b, bs, w, ws, lo + n2, n - n2);
    }
    double t[PW_BLOCK];
    if (as == 1 && bs == 1) /* contiguous rows: the loop vectorizes */
        for (ptrdiff_t k = 0; k < n; k++)
            t[k] = fabs(a[lo + k] - b[lo + k]);
    else
        for (ptrdiff_t k = 0; k < n; k++)
            t[k] = fabs(a[(lo + k) * as] - b[(lo + k) * bs]);
    if (w && ws == 1)
        for (ptrdiff_t k = 0; k < n; k++)
            t[k] *= w[lo + k];
    else if (w)
        for (ptrdiff_t k = 0; k < n; k++)
            t[k] *= w[(lo + k) * ws];
    return block_sum(t, n);
}

/* out[i * n + j] = sum_k |a[i, k] - b[j, k]| (* w[k]) over d features,
 * where a[i, k] is a[i * a_row + k * a_col] (b and w likewise, w may be
 * NULL).  np.sum starts from its identity 0.0, hence the 0.0 + . */
void l1_costs(const double *a, ptrdiff_t a_row, ptrdiff_t a_col, ptrdiff_t m,
              const double *b, ptrdiff_t b_row, ptrdiff_t b_col, ptrdiff_t n,
              ptrdiff_t d, const double *w, ptrdiff_t w_stride, double *out)
{
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            out[i * n + j] = 0.0 + l1_sum(a + i * a_row, a_col, b + j * b_row, b_col,
                                          w, w_stride, 0, d);
}

/* ---------------------------------------------------------------------
 * Transportation simplex: Vogel's start, then MODI pivots
 * ------------------------------------------------------------------ */

/* transport_solve's failures; success returns the pivot count. */
enum { PIVOT_LIMIT = -1, NOT_SPANNING = -2, NO_MEMORY = -3 };

typedef struct {
    ptrdiff_t m, n;
    const double *c; /* c[i * rs + j * cs] */
    ptrdiff_t rs, cs;
    unsigned char *basis; /* (m, n), row-major */
} problem;

#define COST(p, i, j) ((p)->c[(ptrdiff_t)(i) * (p)->rs + (ptrdiff_t)(j) * (p)->cs])

/* Stable insertion sort of idx[0..len) by vals, carrying both. */
static void sort_line(int *idx, double *vals, ptrdiff_t len)
{
    for (ptrdiff_t p = 1; p < len; p++) {
        int key = idx[p];
        double v = vals[p];
        ptrdiff_t q = p - 1;
        for (; q >= 0 && vals[q] > v; q--) {
            idx[q + 1] = idx[q];
            vals[q + 1] = vals[q];
        }
        idx[q + 1] = key;
        vals[q + 1] = v;
    }
}

/* Vogel penalty of a line whose crossing lines o[0..len) are sorted
 * cheapest first: the gap between its two cheapest open cells, its only
 * open cell's cost, or -inf when none is open.  *head moves past the
 * closed lines at the front, so o[*head] is the cheapest open one. */
static double penalty(const int *o, const double *v, ptrdiff_t len,
                      ptrdiff_t *head, const unsigned char *open)
{
    ptrdiff_t a = *head;
    while (a < len && !open[o[a]])
        a++;
    *head = a;
    if (a == len)
        return -INFINITY;
    ptrdiff_t b = a + 1;
    while (b < len && !open[o[b]])
        b++;
    return b < len ? v[b] - v[a] : v[a];
}

/* Vogel's approximation, step for step as the per-line reference loop of
 * tests/core/test_transport.py: rows are lines 0..m-1 and columns m..m+n-1; each line sorts its
 * crossing lines once, cheapest first (stable), and skips the closed
 * ones; the first maximum penalty wins, and exactly one line closes per
 * step.  Returns the basic cells placed. */
static ptrdiff_t vogel(const problem *p, double *s, double *d, double *flow,
                       int *order, double *vals, ptrdiff_t *head, double *pen,
                       unsigned char *open)
{
    const ptrdiff_t m = p->m, n = p->n, lines = m + n;
    /* Row i's list starts at i * n, column j's at m * n + j * m. */
#define START(line) ((line) < m ? (line) * n : m * n + ((line) - m) * m)
#define LEN(line) ((line) < m ? n : m)
    ptrdiff_t rows_left = 0, cols_left = 0;
    for (ptrdiff_t i = 0; i < m; i++) {
        open[i] = s[i] > 0;
        rows_left += open[i];
    }
    for (ptrdiff_t j = 0; j < n; j++) {
        open[m + j] = d[j] > 0;
        cols_left += open[m + j];
    }
    for (ptrdiff_t line = 0; line < lines; line++) {
        int *o = order + START(line);
        double *v = vals + START(line);
        for (ptrdiff_t k = 0; k < LEN(line); k++) {
            o[k] = (int)(line < m ? m + k : k);
            v[k] = line < m ? COST(p, line, k) : COST(p, k, line - m);
        }
        sort_line(o, v, LEN(line));
        head[line] = 0;
        pen[line] = open[line] ? penalty(o, v, LEN(line), head + line, open) : -INFINITY;
    }

    ptrdiff_t cells = 0;
    while (rows_left && cols_left) {
        ptrdiff_t line = 0;
        for (ptrdiff_t k = 1; k < lines; k++)
            if (pen[k] > pen[line])
                line = k;
        ptrdiff_t cross = order[START(line) + head[line]];
        ptrdiff_t i = line < m ? line : cross;
        ptrdiff_t j = line < m ? cross - m : line - m;
        double si = s[i], dj = d[j];
        double amount = dj < si ? dj : si;
        flow[i * n + j] = amount;
        p->basis[i * n + j] = 1;
        cells++;
        s[i] = si = si - amount;
        d[j] = dj = dj - amount;
        /* Close the row, unless it is the last open one and the column
         * is spent as well (one of the two always is). */
        ptrdiff_t closed, lo, hi;
        if (si <= 1e-15 && (rows_left > 1 || dj > 1e-15)) {
            closed = i;
            lo = m;
            hi = lines;
            rows_left--;
        } else {
            closed = m + j;
            lo = 0;
            hi = m;
            cols_left--;
        }
        open[closed] = 0;
        pen[closed] = -INFINITY;
        /* The penalty of a line it crosses moves if it was one of that
         * line's two cheapest; recomputing the others gives their value. */
        for (ptrdiff_t other = lo; other < hi; other++)
            if (open[other])
                pen[other] = penalty(order + START(other), vals + START(other),
                                     LEN(other), head + other, open);
    }
#undef LEN
#undef START
    return cells;
}

static ptrdiff_t find(ptrdiff_t *parent, ptrdiff_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

static int unite(ptrdiff_t *parent, ptrdiff_t a, ptrdiff_t b)
{
    ptrdiff_t ra = find(parent, a), rb = find(parent, b);
    if (ra == rb)
        return 0;
    parent[ra] = rb;
    return 1;
}

/* Grow the basis to a spanning tree with zero-flow cells, scanning the
 * cells in row-major order (the standard epsilon-perturbation step). */
static void span(const problem *p, ptrdiff_t cells, ptrdiff_t *parent)
{
    const ptrdiff_t m = p->m, n = p->n;
    for (ptrdiff_t k = 0; k < m + n; k++)
        parent[k] = k;
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            if (p->basis[i * n + j])
                unite(parent, i, m + j);
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j++) {
            if (cells >= m + n - 1)
                return;
            if (!p->basis[i * n + j] && unite(parent, i, m + j)) {
                p->basis[i * n + j] = 1;
                cells++;
            }
        }
}

/* u_i + v_j = c_ij over the basic cells, by a walk of the basis tree
 * from u_0 = 0; a node the walk cannot reach keeps 0.0. */
static void potentials(const problem *p, double *u, double *v,
                       unsigned char *seen, ptrdiff_t *stack)
{
    const ptrdiff_t m = p->m, n = p->n;
    memset(seen, 0, (size_t)(m + n));
    for (ptrdiff_t i = 0; i < m; i++)
        u[i] = 0.0;
    for (ptrdiff_t j = 0; j < n; j++)
        v[j] = 0.0;
    ptrdiff_t top = 0;
    seen[0] = 1;
    stack[top++] = 0;
    while (top) {
        ptrdiff_t node = stack[--top];
        if (node < m) {
            for (ptrdiff_t j = 0; j < n; j++)
                if (p->basis[node * n + j] && !seen[m + j]) {
                    v[j] = COST(p, node, j) - u[node];
                    seen[m + j] = 1;
                    stack[top++] = m + j;
                }
        } else {
            ptrdiff_t j = node - m;
            for (ptrdiff_t i = 0; i < m; i++)
                if (p->basis[i * n + j] && !seen[i]) {
                    u[i] = COST(p, i, j) - v[j];
                    seen[i] = 1;
                    stack[top++] = i;
                }
        }
    }
}

/* The path from row `start` to column node `goal` through the basis
 * tree, as prev[] links (node -> the node it was reached from); 0 when
 * goal cannot be reached. */
static int tree_path(const problem *p, ptrdiff_t start, ptrdiff_t goal,
                     ptrdiff_t *prev, ptrdiff_t *stack)
{
    const ptrdiff_t m = p->m, n = p->n;
    for (ptrdiff_t k = 0; k < m + n; k++)
        prev[k] = -2; /* unseen */
    prev[start] = -1;
    ptrdiff_t top = 0;
    stack[top++] = start;
    while (top) {
        ptrdiff_t node = stack[--top];
        if (node == goal)
            return 1;
        if (node < m) {
            for (ptrdiff_t j = 0; j < n; j++)
                if (p->basis[node * n + j] && prev[m + j] == -2) {
                    prev[m + j] = node;
                    stack[top++] = m + j;
                }
        } else {
            for (ptrdiff_t i = 0; i < m; i++)
                if (p->basis[i * n + node - m] && prev[i] == -2) {
                    prev[i] = node;
                    stack[top++] = i;
                }
        }
    }
    return 0;
}

/* Solve min sum f_ij c_ij s.t. row sums = supply, column sums = demand,
 * for a balanced problem with positive totals.  work holds the supply
 * (m), the demand (n), then the (m, n) row-major flow, zeroed by the
 * caller; c[i, j] is costs[i * row_stride + j * col_stride].  basis, if
 * not NULL, is a zeroed (m, n) byte matrix that receives the final
 * basis.  Returns the pivots performed, or PIVOT_LIMIT (an improving
 * cell is still open after max_pivots pivots), NOT_SPANNING or
 * NO_MEMORY. */
ptrdiff_t transport_solve(ptrdiff_t m, ptrdiff_t n, double *work,
                          const double *costs, ptrdiff_t row_stride,
                          ptrdiff_t col_stride, double tolerance,
                          ptrdiff_t max_pivots, unsigned char *basis)
{
    const ptrdiff_t lines = m + n, mn = m * n;
    double *flow = work + lines;
    /* doubles: s, d, pen, u, v, vals; ptrdiff_t: head, parent/prev,
     * stack, cycle cells; int: order; bytes: open/seen, own basis. */
    size_t bytes = (size_t)(3 * lines + 2 * mn) * sizeof(double)
                 + (size_t)(3 * lines + 2 * (lines + 1)) * sizeof(ptrdiff_t)
                 + (size_t)(2 * mn) * sizeof(int) + (size_t)(lines + mn);
    char *scratch = malloc(bytes);
    if (!scratch)
        return NO_MEMORY;
    double *s = (double *)scratch, *d = s + m, *pen = d + n, *u = pen + lines,
           *v = u + m, *vals = v + n;
    ptrdiff_t *head = (ptrdiff_t *)(vals + 2 * mn), *links = head + lines,
              *stack = links + lines, *ci = stack + lines, *cj = ci + lines + 1;
    int *order = (int *)(cj + lines + 1);
    unsigned char *flags = (unsigned char *)(order + 2 * mn);
    if (!basis) {
        basis = flags + lines;
        memset(basis, 0, (size_t)mn);
    }
    problem p = {m, n, costs, row_stride, col_stride, basis};
    memcpy(s, work, (size_t)m * sizeof *s);
    memcpy(d, work + m, (size_t)n * sizeof *d);

    ptrdiff_t cells = vogel(&p, s, d, flow, order, vals, head, pen, flags);
    if (cells < lines - 1) /* a full-size Vogel basis is already a tree */
        span(&p, cells, links);

    double biggest = 0.0;
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j++) {
            double a = fabs(COST(&p, i, j));
            if (a > biggest)
                biggest = a;
        }
    double gap = 1e-10 * (1.0 + biggest);
    if (!(gap > tolerance))
        gap = tolerance;

    ptrdiff_t iterations = 0;
    for (;;) {
        potentials(&p, u, v, flags, stack);
        /* Most negative reduced cost, first in row-major order; basic
         * cells count as 0.0. */
        ptrdiff_t ei = 0, ej = 0;
        double best = 0.0;
        for (ptrdiff_t i = 0; i < m; i++)
            for (ptrdiff_t j = 0; j < n; j++) {
                double r = basis[i * n + j] ? 0.0 : (COST(&p, i, j) - u[i]) - v[j];
                if ((i == 0 && j == 0) || r < best) {
                    best = r;
                    ei = i;
                    ej = j;
                }
            }
        if (best >= -gap)
            break;
        if (iterations >= max_pivots) {
            iterations = PIVOT_LIMIT;
            break;
        }
        if (!tree_path(&p, ei, m + ej, links, stack)) {
            iterations = NOT_SPANNING;
            break;
        }
        /* The cycle: the entering cell, then the path back from its
         * column to its row; odd positions lose flow. */
        ptrdiff_t length = 0;
        ci[length] = ei;
        cj[length++] = ej;
        for (ptrdiff_t node = m + ej; links[node] != -1; node = links[node]) {
            ptrdiff_t prior = links[node];
            ci[length] = node < m ? node : prior;
            cj[length++] = node < m ? prior - m : node - m;
        }
        /* The leaving cell: least (flow, (i, j)).  Two losing cells of
         * one cycle never share a row, so i settles every tie. */
        ptrdiff_t leave = 1;
        for (ptrdiff_t k = 3; k < length; k += 2) {
            double fk = flow[ci[k] * n + cj[k]], fl = flow[ci[leave] * n + cj[leave]];
            if (fk < fl || (fk == fl && ci[k] < ci[leave]))
                leave = k;
        }
        double theta = flow[ci[leave] * n + cj[leave]];
        for (ptrdiff_t k = 0; k < length; k++) {
            double *f = flow + ci[k] * n + cj[k];
            if (k % 2 == 0) {
                *f += theta;
            } else {
                *f -= theta;
                if (*f < 0.0) /* numerical dust */
                    *f = 0.0;
            }
        }
        basis[ei * n + ej] = 1;
        basis[ci[leave] * n + cj[leave]] = 0;
        iterations++;
    }
    free(scratch);
    return iterations;
}

/* ---------------------------------------------------------------------
 * The ranking cascade: row/column bound, (bound, id) visit, solves and
 * the running top k
 * ------------------------------------------------------------------ */

/* rank_topk's failure besides transport_solve's: a candidate fails one
 * of solve_transport's checks (the caller has solve_transport raise
 * that candidate's error). */
enum { REFUSED = -4 };

/* The bound's float-safety margin.  Bound and simplex are exact over the
 * reals, but in doubles they round independently, so a bound could
 * exceed the simplex's cost by a few ulps in degenerate cases (a
 * single-segment pair, where both are one sum taken in two orders).
 * Shaving 1e-9 relative, plus an absolute epsilon for exact zeros, keeps
 * it below whatever the two roundings, at no real cost in pruning. */
#define SAFETY_REL 1e-9
#define SAFETY_ABS 1e-12

/* numpy's pairwise sum of n contiguous doubles: blocks of at most
 * PW_BLOCK terms, split in halves that are multiples of 8 above. */
static double pairwise(const double *t, ptrdiff_t n)
{
    if (n <= PW_BLOCK)
        return block_sum(t, n);
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(t, n2) + pairwise(t + n2, n - n2);
}

/* np.sum of n contiguous doubles: its identity 0.0 plus the pairwise sum. */
static double np_sum(const double *t, ptrdiff_t n)
{
    return 0.0 + pairwise(t, n);
}

/* The first candidate with a NaN or infinite cost, or count: a row-major
 * pass over the packed (m, offsets[count]) array tests the exponent
 * bits, which vectorizes, and only a row that holds such a cost is
 * searched for its column. */
static ptrdiff_t first_nonfinite(ptrdiff_t m, ptrdiff_t count, const double *costs,
                                 const ptrdiff_t *offsets)
{
    const uint64_t exponent = 0x7ff0000000000000u;
    const ptrdiff_t width = offsets[count];
    ptrdiff_t column = width;
    for (ptrdiff_t i = 0; i < m; i++) {
        const double *row = costs + i * width;
        int any = 0;
        for (ptrdiff_t j = 0; j < width; j++) {
            uint64_t bits;
            memcpy(&bits, row + j, sizeof bits);
            any |= (bits & exponent) == exponent;
        }
        for (ptrdiff_t j = 0; any && j < column; j++)
            if (!isfinite(row[j]))
                column = j;
    }
    ptrdiff_t p = 0;
    while (p < count && offsets[p + 1] <= column)
        p++;
    return p;
}

/* solve_transport's mass checks, after its finite-cost check: non-
 * negative masses, finite totals, and totals within 1e-6 relative where
 * both are positive.  Returns 1 where it would raise; *total_d receives
 * the demand's total. */
static int refused(ptrdiff_t n, int supply_negative, double total_s,
                   const double *demand, double *total_d)
{
    if (supply_negative)
        return 1;
    for (ptrdiff_t j = 0; j < n; j++)
        if (demand[j] < 0.0)
            return 1;
    double t = *total_d = np_sum(demand, n);
    if (!isfinite(total_s) || !isfinite(t))
        return 1;
    return total_s > 0.0 && t > 0.0
        && fabs(total_s - t) > 1e-6 * (total_s > t ? total_s : t);
}

/* Every packed column's cheapest cost and the supply of its first
 * cheapest row, in one row-major pass over the (m, width) costs. */
static void column_minima(const double *costs, ptrdiff_t m, ptrdiff_t width,
                          const double *supply, double *colmin, double *room)
{
    for (ptrdiff_t j = 0; j < width; j++) {
        colmin[j] = costs[j];
        room[j] = supply[0];
    }
    for (ptrdiff_t i = 1; i < m; i++) {
        const double *row = costs + i * width;
        for (ptrdiff_t j = 0; j < width; j++) {
            int cheaper = row[j] < colmin[j];
            colmin[j] = cheaper ? row[j] : colmin[j];
            room[j] = cheaper ? supply[i] : room[j];
        }
    }
}

/* The row/column lower bound of one candidate with positive totals over
 * its (m, n) costs c[i * width + j].  Row side: every feasible flow
 * ships supply[i] out of row i at no less than its cheapest cell.
 * Column side, the independent-minimisation bound of Assent et al.
 * (ICDE 2008): each column's demand, balanced to the supply, filled from
 * its cheapest rows first with no row carrying more than its supply.
 * Both relax the transportation problem, so the larger, less the safety
 * margin and never below 0, bounds the optimal cost of these (final,
 * thresholded) costs under every EMD configuration.  colmin and room
 * are the candidate's columns of column_minima; keys (m) is scratch. */
static double rowcol_bound(const double *c, ptrdiff_t width, ptrdiff_t m, ptrdiff_t n,
                           const double *supply, const double *demand, double scale,
                           const double *colmin, const double *room, double *keys)
{
    double row_side = 0.0, col_side = 0.0;
    for (ptrdiff_t i = 0; i < m; i++) {
        const double *row = c + i * width;
        double least = row[0];
        for (ptrdiff_t j = 1; j < n; j++)
            least = row[j] < least ? row[j] : least;
        row_side += supply[i] * least;
    }
    for (ptrdiff_t j = 0; j < n; j++) {
        double owed = demand[j] * scale;
        if (owed <= room[j]) { /* the cheapest row carries it all */
            col_side += owed * colmin[j];
            continue;
        }
        for (ptrdiff_t i = 0; i < m; i++)
            keys[i] = c[i * width + j];
        for (ptrdiff_t r = 0; r < m && owed > 0.0; r++) { /* cheapest left */
            ptrdiff_t best = 0;
            for (ptrdiff_t i = 1; i < m; i++)
                if (keys[i] < keys[best])
                    best = i;
            double take = supply[best] < owed ? supply[best] : owed;
            col_side += take * keys[best];
            owed -= take;
            keys[best] = INFINITY;
        }
    }
    double bound = (row_side > col_side ? row_side : col_side) * (1.0 - SAFETY_REL)
                 - SAFETY_ABS;
    return bound > 0.0 ? bound : 0.0;
}

/* One candidate's solve_transport(supply, demand, costs).cost: 0.0 when
 * either side carries no mass, else Vogel's start and MODI pivots on the
 * demand rescaled to the supply's total, and the objective
 * (flow * costs).sum() in numpy's order over the flat (m, n) product.
 * work holds m + n + m * n doubles.  Returns the pivots or a failure. */
static ptrdiff_t solve_cost(const problem *p, const double *supply, double total_s,
                            const double *demand, double total_d, double tolerance,
                            ptrdiff_t max_pivots, double *work, double *cost)
{
    const ptrdiff_t m = p->m, n = p->n, mn = m * n;
    *cost = 0.0;
    if (total_s <= 0.0 || total_d <= 0.0)
        return 0;
    memset(work + m + n, 0, (size_t)mn * sizeof *work);
    memcpy(work, supply, (size_t)m * sizeof *work);
    double ratio = total_s / total_d;
    for (ptrdiff_t j = 0; j < n; j++)
        work[m + j] = demand[j] * ratio;
    ptrdiff_t pivots = transport_solve(m, n, work, p->c, p->rs, p->cs, tolerance,
                                       max_pivots, NULL);
    if (pivots < 0)
        return pivots;
    double *flow = work + m + n;
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            flow[i * n + j] *= COST(p, i, j);
    *cost = np_sum(flow, mn);
    return pivots;
}

typedef struct {
    double key; /* the bound, or the distance */
    int64_t id;
    ptrdiff_t pos;
} entry;

/* a before b: ascending key, then id, then the candidate's position
 * (np.lexsort's stable (bound, id) order, and the (distance, id) order
 * of the results). */
static int before(const entry *a, const entry *b)
{
    if (a->key != b->key)
        return a->key < b->key;
    if (a->id != b->id)
        return a->id < b->id;
    return a->pos < b->pos;
}

/* Restore the binary heap h[0..size) below at: the first entry in the
 * order at the top when first is 1, the last when it is 0. */
static void sift_down(entry *h, ptrdiff_t size, ptrdiff_t at, int first)
{
    for (;;) {
        ptrdiff_t top = at, l = 2 * at + 1, r = l + 1;
        if (l < size && before(&h[l], &h[top]) == first)
            top = l;
        if (r < size && before(&h[r], &h[top]) == first)
            top = r;
        if (top == at)
            return;
        entry e = h[at];
        h[at] = h[top];
        h[top] = e;
        at = top;
    }
}

static int64_t nanoseconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* The cascade of ranking.rank_candidates_many over count candidates.
 * costs is the packed, C-ordered (m, offsets[count]) array of
 * thresholded costs; candidate p owns its columns and demand entries
 * offsets[p] .. offsets[p + 1].  Every candidate first passes
 * solve_transport's checks, in candidate order; bounds[p] receives its
 * row/column bound (0.0 when rowcol is 0 or a side carries no mass).
 * The candidates are then visited in ascending (bound, id) order, off a
 * heap, and the visit stops at the first bound strictly above the k-th
 * distance kept.  top_dist / top_ids receive the min(k, evaluations)
 * nearest under (distance, id), ascending.  info[0] names the candidate
 * of a failure; info[1] and info[2] receive the nanoseconds of the
 * checks and bounds, and of the visit.  Returns the exact evaluations,
 * or REFUSED, PIVOT_LIMIT, NOT_SPANNING or NO_MEMORY. */
ptrdiff_t rank_topk(ptrdiff_t m, ptrdiff_t count, const double *costs,
                    const ptrdiff_t *offsets, const double *supply,
                    const double *demand, const int64_t *ids, ptrdiff_t k,
                    int rowcol, double tolerance, ptrdiff_t pivot_factor,
                    double *bounds, double *top_dist, int64_t *top_ids,
                    int64_t *info)
{
    int64_t started = nanoseconds();
    const ptrdiff_t width = offsets[count];
    ptrdiff_t widest = 0;
    for (ptrdiff_t p = 0; p < count; p++)
        if (offsets[p + 1] - offsets[p] > widest)
            widest = offsets[p + 1] - offsets[p];
    if (k < 0)
        k = 0;
    /* the visit heap and the kept top k; candidate totals; the solve's
     * work; the column minima and rooms, and the bound's keys */
    size_t bytes = (size_t)(count + k) * sizeof(entry)
                 + (size_t)(count + m + widest + m * widest + 2 * width + m)
                       * sizeof(double);
    char *scratch = malloc(bytes ? bytes : 1);
    if (!scratch)
        return NO_MEMORY;
    entry *visits = (entry *)scratch, *kept = visits + count;
    double *totals = (double *)(kept + k), *work = totals + count,
           *colmin = work + m + widest + m * widest, *room = colmin + width,
           *keys = room + width;

    int supply_negative = 0;
    for (ptrdiff_t i = 0; i < m; i++)
        supply_negative |= supply[i] < 0.0;
    double total_s = np_sum(supply, m);
    ptrdiff_t nonfinite = first_nonfinite(m, count, costs, offsets);
    if (rowcol && m > 0)
        column_minima(costs, m, width, supply, colmin, room);
    ptrdiff_t result = 0;
    for (ptrdiff_t p = 0; p < count; p++) {
        ptrdiff_t n = offsets[p + 1] - offsets[p];
        const double *d = demand + offsets[p];
        if (p == nonfinite || refused(n, supply_negative, total_s, d, totals + p)) {
            info[0] = p;
            result = REFUSED;
            goto done;
        }
        double bound = 0.0;
        if (rowcol && total_s > 0.0 && totals[p] > 0.0)
            bound = rowcol_bound(costs + offsets[p], width, m, n, supply, d,
                                 total_s / totals[p], colmin + offsets[p],
                                 room + offsets[p], keys);
        bounds[p] = bound;
        visits[p] = (entry){bound, ids[p], p};
    }
    for (ptrdiff_t at = count / 2 - 1; at >= 0; at--)
        sift_down(visits, count, at, 1);
    int64_t bounded = nanoseconds();
    info[1] = bounded - started;

    ptrdiff_t size = 0;
    for (ptrdiff_t left = count; left > 0 && k > 0; left--) {
        entry next = visits[0];
        visits[0] = visits[left - 1];
        sift_down(visits, left - 1, 0, 1);
        /* Strictly above only: a bound that ties the k-th distance can
         * still replace it through a smaller id. */
        if (size == k && next.key > kept[0].key)
            break;
        ptrdiff_t p = next.pos;
        problem cand = {m, offsets[p + 1] - offsets[p], costs + offsets[p], width, 1, NULL};
        entry found = {0.0, ids[p], p};
        ptrdiff_t pivots = solve_cost(&cand, supply, total_s, demand + offsets[p], totals[p],
                                      tolerance, pivot_factor * (m + cand.n), work, &found.key);
        if (pivots < 0) {
            info[0] = p;
            result = pivots;
            goto done;
        }
        result++;
        /* The kept top k is a heap with its last entry on top. */
        if (size < k) {
            ptrdiff_t at = size++;
            for (; at > 0 && before(&kept[(at - 1) / 2], &found); at = (at - 1) / 2)
                kept[at] = kept[(at - 1) / 2];
            kept[at] = found;
        } else if (before(&found, &kept[0])) {
            kept[0] = found;
            sift_down(kept, size, 0, 0);
        }
    }
    for (ptrdiff_t last = size - 1; last >= 0; last--) { /* ascending out */
        top_dist[last] = kept[0].key;
        top_ids[last] = kept[0].id;
        kept[0] = kept[last];
        sift_down(kept, last, 0, 0);
    }
    info[2] = nanoseconds() - bounded;
done:
    free(scratch);
    return result;
}

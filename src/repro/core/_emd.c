/* Exact EMD kernels: the l1 ground-distance block and the transportation
 * simplex.
 *
 * Both reproduce their Python / numpy twins (emd._l1_cost_matrix and
 * transport._simplex) bit for bit: the same double operations in the
 * same order, built with -ffp-contract=off so that no fused multiply-add
 * changes a rounding.  Loaded through ctypes, which releases the GIL for
 * the call.  Matrices are read in place through element strides.
 */
#include <math.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

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

/* Vogel's approximation, step for step as transport._vogel_initial_solution:
 * rows are lines 0..m-1 and columns m..m+n-1; each line sorts its
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
 * cells in row-major order (transport._ensure_spanning_basis). */
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

/* The package's compiled kernels: the matrix reader (core.py), the
   product build (graph.py) and the root level of the split clique search
   (clique.py).  Each function computes exactly what the numpy code it
   replaces computes, which stays as its oracle and as the fallback
   without a compiler. */

#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The n x n matrix in data[0:len], rows of n comma-separated plain
   decimals, [+-]digits[.digits][(e|E)[+-]digits] with digits on at least
   one side of the point, each row ending in LF or CRLF, the last row
   maybe in neither, converted by strtod into out row by row.  Returns 0,
   or -1 for any other input, a field longer than field_max bytes, or a
   locale whose decimal point is not '.'.  data[len] must be readable and
   no digit, point or sign (a NUL, as Python's bytes end in). */
int64_t read_matrix(const char *data, int64_t len, int64_t n, int64_t field_max, double *out)
{
    const char *p = data, *end = data + len;
    if (strcmp(localeconv()->decimal_point, ".") != 0)
        return -1;
    for (int64_t r = 0; r < n; r++) {
        for (int64_t c = 0; c < n; c++) {
            const char *field = p, *digits;
            char *stop;
            int64_t mantissa;
            if (p < end && (*p == '+' || *p == '-'))
                p++;
            for (digits = p; p < end && *p >= '0' && *p <= '9'; p++)
                ;
            mantissa = p - digits;
            if (p < end && *p == '.')
                for (digits = ++p; p < end && *p >= '0' && *p <= '9'; p++)
                    ;
            if (mantissa + (p - digits) == 0)
                return -1;
            if (p < end && (*p == 'e' || *p == 'E')) {
                if (++p < end && (*p == '+' || *p == '-'))
                    p++;
                for (digits = p; p < end && *p >= '0' && *p <= '9'; p++)
                    ;
                if (p == digits)
                    return -1;
            }
            if (p - field > field_max)
                return -1;
            out[r * n + c] = strtod(field, &stop);
            if (stop != p)
                return -1;
            if (c + 1 < n && (p == end || *p++ != ','))
                return -1;
        }
        if (p < end && *p == '\r')
            p++;
        if (p < end ? *p++ != '\n' : p[-1] == '\r')
            return -1;
    }
    return p == end ? 0 : -1;
}

/* Swaps entries i and j of the parallel arrays w, a and b. */
static void swap3(double *w, int32_t *a, int32_t *b, int64_t i, int64_t j)
{
    double x = w[i];
    int32_t y = a[i], z = b[i];
    w[i] = w[j], a[i] = a[j], b[i] = b[j];
    w[j] = x, a[j] = y, b[j] = z;
}

/* Heapsort of the parallel arrays w, a and b, of length len, by w: in
   place and O(len log len) whatever the weights. */
static void sort3(double *w, int32_t *a, int32_t *b, int64_t len)
{
    for (int64_t top = len / 2 + len; top-- > 1;) {
        int64_t end = top < len ? top : len, root = top < len ? 0 : top - len;
        if (top < len)
            swap3(w, a, b, 0, top);
        for (int64_t child; (child = 2 * root + 1) < end; root = child) {
            child += child + 1 < end && w[child + 1] > w[child];
            if (w[root] >= w[child])
                break;
            swap3(w, a, b, root, child);
        }
    }
}

/* The pairs ids[i] < ids[j], i < j < m, of an n x n weight matrix,
   grouped by label pair lab[ids[i]] * k + lab[ids[j]]: group g is
   w[start[g]:start[g + 1]], the pairs' weights in ascending order, with
   their offset[ids[i]] and offset[ids[j]] in a and b.  start holds
   k * k + 1 zeros. */
void group_pairs(int64_t m, const int64_t *ids, const int64_t *lab, int64_t k,
                 const double *weights, int64_t n, const int32_t *offset, int64_t *start,
                 double *w, int32_t *a, int32_t *b)
{
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = i + 1; j < m; j++)
            start[lab[ids[i]] * k + lab[ids[j]] + 1]++;
    for (int64_t g = 0; g < k * k; g++)
        start[g + 1] += start[g];
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = i + 1; j < m; j++) {
            int64_t p = start[lab[ids[i]] * k + lab[ids[j]]]++;
            w[p] = weights[ids[i] * n + ids[j]];
            a[p] = offset[ids[i]];
            b[p] = offset[ids[j]];
        }
    memmove(start + 1, start, k * k * sizeof *start);
    start[0] = 0;
    for (int64_t g = 0; g < k * k; g++)
        sort3(w + start[g], a + start[g], b + start[g], start[g + 1] - start[g]);
}

/* The product join on group_pairs' groups of target pairs (offsets base
   of their records, weight t) and of identification pairs (offsets rank,
   weight s).  A target pair (x1, x2) of label pair (a, b) meets the
   identification pairs (y1, y2) of label pair (a, b), and reversed, as
   (y2, y1), those of (b, a), whose weight s lies in the closed window
   [fl(t + lo), fl(t + hi)], found by two pointers as t ascends: each is a
   candidate, and an edge x1 + y1 < x2 + y2 of the product when
   lo < s - t < hi.  Returns the number of candidates.  Without indices,
   each edge x < y adds one to low[y] and to up[x]; with indices, it
   writes y to indices[up[x]++]. */
int64_t join(int64_t k, const int64_t *tstart, const double *t, const int32_t *t1,
             const int32_t *t2, const int64_t *istart, const double *s, const int32_t *i1,
             const int32_t *i2, double lo, double hi, int64_t *low, int64_t *up,
             int32_t *indices)
{
    int64_t candidates = 0;
    for (int64_t g = 0; g < k * k; g++) {
        int64_t h = g % k * k + g / k;  /* (b, a) for g = (a, b) */
        int64_t first[2] = {istart[g], istart[h]}, last[2] = {istart[g], istart[h]};
        for (int64_t p = tstart[g]; p < tstart[g + 1]; p++) {
            double below = t[p] + lo, above = t[p] + hi;
            for (int side = 0; side < 2; side++) {
                const int32_t *y1 = side ? i2 : i1, *y2 = side ? i1 : i2;
                int64_t stop = istart[(side ? h : g) + 1];
                while (first[side] < stop && s[first[side]] < below)
                    first[side]++;
                while (last[side] < stop && s[last[side]] <= above)
                    last[side]++;
                candidates += last[side] - first[side];
                for (int64_t c = first[side]; c < last[side]; c++) {
                    double dev = s[c] - t[p];
                    if (lo < dev && dev < hi) {
                        int64_t x = t1[p] + y1[c], y = t2[p] + y2[c];
                        if (indices)
                            indices[up[x]++] = (int32_t)y;
                        else {
                            low[y]++;
                            up[x]++;
                        }
                    }
                }
            }
        }
    }
    return candidates;
}

/* Sorts the rows of the symmetric CSR (indptr, indices) on n vertices
   whose row v holds low[v] lower neighbours, then its upper ones, these
   in any order: the upper halves, transposed, give the lower ones in
   ascending order, and those, transposed, the upper ones (Gustavson
   1978).  cursor holds n entries. */
void csr_order(int64_t n, const int64_t *indptr, const int64_t *low, int64_t *cursor,
               int32_t *indices)
{
    for (int64_t v = 0; v < n; v++)
        cursor[v] = indptr[v];
    for (int64_t x = 0; x < n; x++)
        for (int64_t p = indptr[x] + low[x]; p < indptr[x + 1]; p++)
            indices[cursor[indices[p]]++] = (int32_t)x;
    for (int64_t v = 0; v < n; v++)
        cursor[v] = indptr[v] + low[v];
    for (int64_t y = 0; y < n; y++)
        for (int64_t p = indptr[y]; p < indptr[y] + low[y]; p++)
            indices[cursor[indices[p]]++] = (int32_t)y;
}

/* Root branch v on the forward CSR (indptr, adj): the edges among its
   candidates adj[indptr[v]:indptr[v + 1]], each once, as local ids
   (a[k], b[k]) in the order of the candidates' forward lists, with their
   count in *m; returns 1 + the most lower neighbours a candidate has among
   them, or 0 without candidates.  mark holds one zero per vertex and is
   left zero; lower holds one entry per candidate. */
int64_t branch(const int64_t *indptr, const int64_t *adj, int32_t *mark, int64_t *lower,
               int64_t v, int64_t *a, int64_t *b, int64_t *m)
{
    const int64_t *cand = adj + indptr[v];
    int64_t s = indptr[v + 1] - indptr[v], k = 0, top = 0;
    for (int64_t i = 0; i < s; i++) {
        mark[cand[i]] = (int32_t)(i + 1);
        lower[i] = 0;
    }
    for (int64_t i = 0; i < s; i++)
        for (int64_t p = indptr[cand[i]]; p < indptr[cand[i] + 1]; p++) {
            int64_t j = mark[adj[p]] - 1;
            if (j >= 0) {
                a[k] = i;
                b[k++] = j;
                lower[i > j ? i : j]++;
            }
        }
    for (int64_t i = 0; i < s; i++) {
        mark[cand[i]] = 0;
        top = lower[i] > top ? lower[i] : top;
    }
    *m = k;
    return s ? top + 1 : 0;
}

/* First-fit colours of the graph (indptr, indices) relabelled so that
   vertex i is order[i] (pos inverts order): each vertex takes the least
   colour c >= 1 that no lower neighbour holds.  Each edge gives one key
   x * n + y, x the end with the higher colour, in key.  seen holds n + 2
   zeros. */
void root_colour(int64_t n, const int64_t *indptr, const int32_t *indices, const int64_t *order,
                 const int64_t *pos, int64_t *seen, int64_t *colour, int64_t *key)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = 1, lo = indptr[order[i]], hi = indptr[order[i] + 1];
        for (int64_t p = lo; p < hi; p++) {
            int64_t w = pos[indices[p]];
            if (w < i)
                seen[colour[w]] = i + 1;
        }
        while (seen[c] == i + 1)
            c++;
        colour[i] = c;
        for (int64_t p = lo; p < hi; p++) {
            int64_t w = pos[indices[p]];
            if (w < i)
                key[m++] = c > colour[w] ? i * n + w : w * n + i;
        }
    }
}

/* The package's compiled kernels: the matrix reader (core.py), the
   product build (graph.py) and the root level of the split clique search
   (clique.py).  Each function computes exactly what the numpy code it
   replaces computes, which stays as its oracle and as the fallback
   without a compiler. */

#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef __SIZEOF_INT128__
/* 5^k for 0 <= k <= 27, each below 2^63 */
static const uint64_t pow5[28] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
    244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
    3814697265625, 19073486328125, 95367431640625, 476837158203125, 2384185791015625,
    11920928955078125, 59604644775390625, 298023223876953125, 1490116119384765625,
    7450580596923828125};

/* The bit length of x > 0. */
static int bits(unsigned __int128 x)
{
    uint64_t hi = (uint64_t)(x >> 64);
    return hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((uint64_t)x);
}

/* q * 2^e for q < 2^63, rounded once to nearest, ties to even, by the
   signed 64-bit conversion, then scaled exactly through the bits of 2^e
   (-1022 <= e <= 1023): the result must be a normal double. */
static double scaled(uint64_t q, int e)
{
    union { uint64_t bits; double value; } power = {(uint64_t)(1023 + e) << 52};
    return (double)(int64_t)q * power.value;
}

/* Whether m * 10^e, for m of figures significant digits, converts
   exactly here: then *x is that value rounded to nearest, ties to even,
   as strtod and float() round it (Clinger, "How to read floating point
   numbers accurately", PLDI 1990).  Only 0 to 19 figures and |e| <= 27
   do, where m * 5^|e| or m scaled over 5^|e| fits in 128 bits: the exact
   value, scaled by a power of two so that its integer part q has 63 bits
   (or fewer and no fraction), is q plus a fraction, and q with its lowest
   bit set when that fraction is nonzero rounds to 53 bits as the exact
   value does. */
static int exact(uint64_t m, int64_t figures, int64_t e, double *x)
{
    if (figures == 0) {
        *x = 0.0;
        return 1;
    }
    if (figures > 19 || e < -27 || e > 27)
        return 0;
    if (e >= 0) {  /* m * 5^e * 2^e, an integer */
        unsigned __int128 v = (unsigned __int128)m * pow5[e];
        int drop = bits(v) > 63 ? bits(v) - 63 : 0;
        uint64_t q = (uint64_t)(v >> drop);
        *x = scaled(q | ((v & (((unsigned __int128)1 << drop) - 1)) != 0), (int)e + drop);
        return 1;
    }
    uint64_t den = pow5[-e];  /* m / 5^-e * 2^e */
    int shift = 63 + bits(den) - bits(m);  /* v / den lies in (2^62, 2^64) */
    unsigned __int128 v = (unsigned __int128)m << shift;
    uint64_t q = (uint64_t)(v / den), sticky = (unsigned __int128)q * den != v;
    if (q >> 63) {  /* the bit lost is 0 unless sticky is 1: q = m / 5^-e * 2^shift if exact */
        q >>= 1;
        shift--;
    }
    *x = scaled(q | sticky, (int)e - shift);
    return 1;
}
#else
static int exact(uint64_t m, int64_t figures, int64_t e, double *x)
{
    (void)m, (void)figures, (void)e, (void)x;
    return 0;
}
#endif

/* The n x n matrix in data[0:len], rows of n comma-separated plain
   decimals, [+-]digits[.digits][(e|E)[+-]digits] with digits on at least
   one side of the point, each row ending in LF or CRLF, the last row
   maybe in neither, converted into out row by row: exactly in integer
   arithmetic where exact() can, by strtod otherwise, correctly rounded
   either way.  Returns 0, or -1 for any other input, a field longer than
   field_max bytes, or a locale whose decimal point is not '.'.  data[len]
   must be readable and no digit, point or sign (a NUL, as Python's bytes
   end in). */
int64_t read_matrix(const char *data, int64_t len, int64_t n, int64_t field_max, double *out)
{
    const char *p = data, *end = data + len;
    if (strcmp(localeconv()->decimal_point, ".") != 0)
        return -1;
    for (int64_t r = 0; r < n; r++) {
        for (int64_t c = 0; c < n; c++) {
            const char *field = p, *number, *digits;
            char *stop;
            int negative = 0;
            uint64_t m = 0;  /* the first 19 significant digits */
            int64_t figures = 0, mantissa, power = 0;
            double x;
            if (p < end && (*p == '+' || *p == '-'))
                negative = *p++ == '-';
            number = p;
            for (digits = p; p < end && *p >= '0' && *p <= '9'; p++)
                if ((m || *p != '0') && ++figures <= 19)
                    m = m * 10 + (uint64_t)(*p - '0');
            mantissa = p - digits;
            if (p < end && *p == '.') {
                for (digits = ++p; p < end && *p >= '0' && *p <= '9'; p++)
                    if ((m || *p != '0') && ++figures <= 19)
                        m = m * 10 + (uint64_t)(*p - '0');
                power = -(p - digits);
            }
            if (mantissa + (p - digits) == 0)
                return -1;
            if (p < end && (*p == 'e' || *p == 'E')) {
                int64_t written = 0, sign = 1;
                if (++p < end && (*p == '+' || *p == '-'))
                    sign = *p++ == '-' ? -1 : 1;
                for (digits = p; p < end && *p >= '0' && *p <= '9'; p++)
                    if (written < 100000)  /* past any double's range */
                        written = written * 10 + (*p - '0');
                if (p == digits)
                    return -1;
                power += sign * written;
            }
            if (p - field > field_max)
                return -1;
            if (!exact(m, figures, power, &x) && (x = strtod(number, &stop), stop != p))
                return -1;
            out[r * n + c] = negative ? -x : x;
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
static int64_t branch(const int64_t *indptr, const int64_t *adj, int32_t *mark, int64_t *lower,
                      int64_t v, int32_t *a, int32_t *b, int64_t *m)
{
    const int64_t *cand = adj + indptr[v];
    int64_t s = indptr[v + 1] - indptr[v], k = 0, top = 0;
    for (int64_t i = 0; i < s; i++) {
        mark[cand[i]] = (int32_t)(i + 1);
        lower[i] = 0;
    }
    for (int64_t i = 0; i < s; i++)
        for (int64_t p = indptr[cand[i]]; p < indptr[cand[i] + 1]; p++) {
            int32_t j = mark[adj[p]] - 1;
            if (j >= 0) {
                a[k] = (int32_t)i;
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

/* branch() for the root branches vs[0:count] in turn, while their edges
   surely fit in a and b, which hold capacity entries: the j-th branch's
   bound in bounds[j], its edges appended to a and b, ending at ends[j].
   A branch with s candidates has at most s * (s - 1) / 2 edges, and a
   branch after the first stops the call when that many could overflow,
   so capacity must hold any one branch's edges.  Returns the number of
   branches done. */
int64_t branches(const int64_t *indptr, const int64_t *adj, int32_t *mark, int64_t *lower,
                 const int64_t *vs, int64_t count, int64_t capacity,
                 int64_t *bounds, int64_t *ends, int32_t *a, int32_t *b)
{
    int64_t j, m = 0;
    for (j = 0; j < count; j++) {
        int64_t s = indptr[vs[j] + 1] - indptr[vs[j]], k;
        if (j && m + s * (s - 1) / 2 > capacity)
            break;
        bounds[j] = branch(indptr, adj, mark, lower, vs[j], a + m, b + m, &k);
        m += k;
        ends[j] = m;
    }
    return j;
}

/* The colour classes of the s vertices with the m edges (a[k], b[k]), as
   _colour_classes(_complements(rows), all s vertices, kmin) lists them:
   each class takes in ascending order the vertices left that none in it
   is adjacent to, and the pairs (vertex[j], colour[j]) with colour above
   kmin come by ascending colour, then vertex.  Returns their number.
   rows holds (s + 2) * ceil(s / 64) words: the adjacency rows, then the
   vertices left and those the class can still take. */
int64_t local_colour(int64_t s, const int32_t *a, const int32_t *b, int64_t m, int64_t kmin,
                     uint64_t *rows, int32_t *vertex, int32_t *colour)
{
    int64_t words = (s + 63) / 64, listed = 0, left = s, first = 0;
    uint64_t *rest = rows + s * words, *avail = rest + words;
    memset(rows, 0, (size_t)(s + 1) * (size_t)words * sizeof *rows);
    for (int64_t k = 0; k < m; k++) {
        rows[a[k] * words + b[k] / 64] |= (uint64_t)1 << (b[k] % 64);
        rows[b[k] * words + a[k] / 64] |= (uint64_t)1 << (a[k] % 64);
    }
    for (int64_t i = 0; i < s; i++)
        rest[i / 64] |= (uint64_t)1 << (i % 64);
    for (int32_t c = 1; left; c++) {
        while (!rest[first])
            first++;
        memcpy(avail + first, rest + first, (size_t)(words - first) * sizeof *avail);
        for (int64_t w = first; w < words; ) {
            if (!avail[w]) {
                w++;
                continue;
            }
            int64_t v = w * 64 + __builtin_ctzll(avail[w]);
            const uint64_t *row = rows + v * words;
            if (c > kmin) {
                vertex[listed] = (int32_t)v;
                colour[listed++] = c;
            }
            avail[w] &= avail[w] - 1;
            rest[w] ^= (uint64_t)1 << (v % 64);
            left--;
            for (int64_t u = w; u < words; u++)
                avail[u] &= ~row[u];
        }
    }
    return listed;
}

/* First-fit colours of the graph (indptr, indices) relabelled so that
   vertex i is order[i] (pos inverts order): each vertex takes the least
   colour c >= 1 that no lower neighbour holds.  Each edge gives one key
   x * n + y, x the end with the higher colour, in key.  One scan of each
   row writes every neighbour's label to lower, branch-free, keeping the
   lower ones; lower holds the most neighbours a vertex has, and seen
   n + 2 zeros. */
void root_colour(int64_t n, const int64_t *indptr, const int32_t *indices, const int64_t *order,
                 const int64_t *pos, int64_t *lower, int64_t *seen, int64_t *colour, int64_t *key)
{
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = 1, k = 0;
        for (int64_t p = indptr[order[i]]; p < indptr[order[i] + 1]; p++) {
            int64_t w = pos[indices[p]];
            lower[k] = w;
            k += w < i;
        }
        for (int64_t j = 0; j < k; j++)
            seen[colour[lower[j]]] = i + 1;
        while (seen[c] == i + 1)
            c++;
        colour[i] = c;
        for (int64_t j = 0; j < k; j++)
            key[m++] = c > colour[lower[j]] ? i * n + lower[j] : lower[j] * n + i;
    }
}

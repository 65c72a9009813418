/* The root level of the split clique search (clique.py), compiled.  Each
   function computes exactly what the numpy code it replaces computes,
   which stays as its oracle and as the fallback without a compiler. */

#include <stdint.h>

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

"""The expansion coefficients by their defining double sums: the
reference whose floats ``antsel.analytic.outage_coefficient`` must equal.

c_k = sum_{i <= k} (-1)^(k-i) (m-k-1)! / ((m-i)! i!) for k < m, and
a_n = m sum_{k <= min(n, m-1)} c_k (-1)^(n-k) / (n-k)! for n <= m, each
summed term by term in exact rationals.  This costs O(m^2) rational terms
for ``c`` and for ``a``, so it serves small shapes only.
"""

import math
from fractions import Fraction


def reference_coefficients(n_t, n_r):
    """``(c, a)`` of the (n_t, n_r) geometry as tuples of floats."""
    m = (n_t - 1) * (n_r - 1)
    c = []
    for k in range(m):
        ck = Fraction(0)
        for i in range(k + 1):
            ck += Fraction((-1) ** (k - i) * math.factorial(m - k - 1), math.factorial(m - i) * math.factorial(i))
        c.append(ck)
    a = []
    for n in range(m + 1):
        an = Fraction(0)
        for k in range(min(n, m - 1) + 1):
            an += c[k] * Fraction((-1) ** (n - k), math.factorial(n - k))
        a.append(m * an)
    return tuple(float(v) for v in c), tuple(float(v) for v in a)

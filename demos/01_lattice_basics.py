"""A first tour: multisets of vectors, multispans, and the lattice metric.

A multispace is what you get when you close a *multiset* of vectors
under linear combinations and keep counting repetitions: the support is
an ordinary subspace, and every member shows up the same number q^t of
times.  This script builds a few of them over GF(2)^3 and pokes at the
lattice structure.
"""

from multispace import (
    Multispace,
    Subspace,
    VectorMultiset,
    count_multispaces,
    distance,
    field,
    gaussian_binomial,
    join,
    meet,
    mspan,
)

F2 = field(2)

print("== multispans ==")
b = VectorMultiset(F2, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
w = mspan(b)
print(f"generators: {b.matrix.tolist()}")
print(f"mspan: dim {w.dim}, height {w.height}, rank {w.rank}")
print(f"multiset size q^rank = {w.size()}, member multiplicity q^ht = {w.multiplicity()}")

# the support is the underlying subspace; each of its vectors occurs q^ht times
support = w.underlying.vector_array()
print(f"support: {len(support)} distinct vectors {support.tolist()}, each {w.multiplicity()} times")

print()
print("== meet, join, distance ==")
a = Multispace(Subspace.from_array(F2, 3, [[1, 0, 0]]), 0)  # the line <e1>, each vector once
c = Multispace(Subspace.zero(F2, 3), 1)  # {0, 0}: the zero vector twice
print(f"a = {a}")
print(f"c = {c}")
print(f"meet(a, c) = {meet(a, c)}  (multiset intersection)")
print(f"join(a, c) = {join(a, c)}  (least upper bound)")
print(f"distance(a, c) = {distance(a, c)}  (rank(join) - rank(meet))")

print()
print("== counting ==")
print("Gaussian binomial [3 choose 1]_2 =", gaussian_binomial(3, 1, 2))
for m in range(5):
    print(f"|multispaces of rank {m} over GF(2)^3| = {count_multispaces(3, m, 2)}")
print("note the count stabilizes at 16 = |subspaces of GF(2)^3| once m >= n")

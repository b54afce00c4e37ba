"""Decide fusion questions two independent ways and enumerate fusing tuples.

Run:  python3 demos/02_fusion_oracles.py
"""

import amorphic as am

scheme = am.gen_hamming_binary(3)

# merging the odd-distance classes {1,3} gives a 2-class fusion scheme
pi = am.ClassPartition.from_string("1,3|2", 3)
out = am.fuse_direct(scheme, pi)  # exact: block sums of the intersection tensor
print(f"partition {pi} fuses; dual partition rho = {out.rho}")
print("fused eigenmatrix:")
print(out.P_fused.astype(int))

# the eigenmatrix criterion answers the same question from P alone
spec = am.spectral_decomposition(scheme)
dual = am.bm_check(spec, pi)
print(f"row-sum criterion agrees: rho = {dual.rho}")

# a partition that does not fuse
try:
    am.fuse_direct(scheme, am.ClassPartition.from_string("2,3|1", 3))
except am.NotAFusion as exc:
    print(f"rejected as expected: {exc}")

# all fusing pairs and triples of a 5-class scheme
h5 = am.gen_hamming_binary(5)
print(f"H(5,2) fusing pairs:   {am.enumerate_fusing_tuples(h5, 2)}")
print(f"H(5,2) fusing triples: {am.enumerate_fusing_tuples(h5, 3)}")

# the unique fusing triple is of type 2: its dual partition merges two
# disjoint pairs of idempotents
t = am.classify_triple(h5, (1, 3, 5))
print(f"triple (1,3,5) is type {t.kind} with dual sets {[sorted(s) for s in t.sets]}")

"""Walk a small patient table through the generalization pipeline.

Nineteen patients carry six diseases with frequencies 2/19 .. 4/19. With a
budget of beta = 2 the pipeline groups the diseases into three buckets,
decides class sizes by recursive halving, and materializes classes whose QI
values are recoded to ranges. Every class's disease mix stays within the
frequency bounds, whatever the adversary knows about the overall table.

Run: python demos/generalization_walkthrough.py
"""
import numpy as np

import betalike as bl

BETA = 2.0

schema = bl.DatasetSchema((
    bl.Attribute("weight", "qi", "numeric", lo=40, hi=90),
    bl.Attribute("age", "qi", "numeric", lo=20, hi=80),
    bl.Attribute("disease", "sa"),
))

rng = np.random.default_rng(3)
rows = []
for disease, count in [
    ("headache", 2), ("epilepsy", 3), ("brain tumors", 3),
    ("anemia", 3), ("angina", 4), ("heart murmur", 4),
]:
    for _ in range(count):
        rows.append({
            "weight": int(rng.integers(40, 91)),
            "age": int(rng.integers(20, 81)),
            "disease": disease,
        })
table = bl.table_from_rows(schema, rows)

dist = bl.sa_distribution(table)
print(f"{table.n_rows} rows, SA domain of {dist.m} diseases")
for value, count in zip(dist.values, dist.counts):
    p = count / dist.total
    print(f"  {value:<13} p = {count}/{dist.total} = {p:.4f}   "
          f"bound f(p) = {bl.frequency_bound(p, BETA):.4f}")

print(f"\nBucketization at beta = {BETA}: the fewest buckets whose mass stays")
print("strictly under the bound of their rarest member.")
partition = bl.dp_partition(table, BETA)
for i, bucket in enumerate(partition.buckets, 1):
    print(f"  bucket {i}: {', '.join(bucket.value_names(dist))} "
          f"({bucket.size} rows, mass {bucket.mass:.4f} < f({bucket.min_freq:.4f}))")

print("\nAllocation tree: halve every bucket's share while both halves stay")
print("eligible; the leaves are the class compositions.")
for leaf in bl.bi_split(partition):
    share = leaf / leaf.sum()
    print(f"  draw {leaf.tolist()} -> class of {leaf.sum()} "
          f"(worst bucket share {share.max():.3f})")

release = bl.generalize(table, BETA, seed=7)
print(f"\nMaterialized {len(release.ecs)} classes by curve-local retrieval:")
for k, ec in enumerate(release.ecs):
    (w_lo, w_hi), (a_lo, a_hi) = ec.extents
    diseases = {dist.values[i]: int(c) for i, c in enumerate(ec.sa_counts) if c}
    print(f"  class {k}: weight [{w_lo:.0f}, {w_hi:.0f}], age [{a_lo:.0f}, {a_hi:.0f}], "
          f"{ec.size} rows, SA multiset {diseases}")

print(f"\nachieved beta  = {bl.achieved_beta(release):.4f} (requested {BETA})")
print(f"information loss (AIL) = {bl.ail(release):.4f}")

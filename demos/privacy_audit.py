"""Audit published releases: achieved budget and classifier bounds.

The achieved beta of a release is the smallest budget under which every class
still passes; "unbounded" means some class frequency exceeds the logarithmic
cap no finite budget relaxes. The classifier audit measures how far each
(QI value, SA value) conditional probability drifts from its unconditional
counterpart and runs the naive-Bayes attack those conditionals support.

Run: python demos/privacy_audit.py
"""
import numpy as np

import betalike as bl
from betalike.release import EquivalenceClass, Release

BETA = 4.0
table = bl.generate_synthetic(50_000, 50, seed=5, sa_freqs=bl.census_like_profile(50))
release = bl.generalize(table, BETA, seed=1)

print(f"release: {len(release.ecs)} classes at requested beta = {BETA}")
print(f"achieved beta = {bl.achieved_beta(release):.4f}")
print("\nfirst five class audit lines:")
for line in bl.ec_audit_lines(release)[:5]:
    print("  " + line)

report = bl.nb_bound_audit(release, table)
print("\nclassifier-bound audit:")
for line in report.lines():
    print("  " + line)
print(f"  per-value worst ratios: {report.max_ratio.min():.3f}..{report.max_ratio.max():.3f}"
      f" (bounds {report.bounds.min():.3f}..{report.bounds.max():.3f})")

# A hand-built unsafe release: one class gives a value away with certainty.
print("\nan unsafe release, for contrast:")
schema = bl.DatasetSchema((
    bl.Attribute("x", "qi", "numeric", lo=0, hi=10),
    bl.Attribute("s", "sa"),
))
dist = bl.Distribution(("rare", "common"), (3, 7), 10)
leaky = Release(schema, dist, BETA, 0, 16, (
    EquivalenceClass(((0, 2),), np.array([3, 0])),
    EquivalenceClass(((2, 9),), np.array([0, 7])),
))
achieved = bl.achieved_beta(leaky)
print(f"  achieved beta = {'unbounded' if achieved == float('inf') else achieved}")
for line in bl.ec_audit_lines(leaky):
    print("  " + line)

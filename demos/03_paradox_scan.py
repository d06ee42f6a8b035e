"""Exhibit the star paradox numerically.

Data of length n is simulated from the star tree (no internal branch),
yet the posterior over the three resolved trees -- the likelihood kernels
integrated over a tempered branch-length prior -- keeps assigning
near-certain support to a fixed resolution with a frequency that does not
vanish as n grows.  One posterior is integrated deterministically; the
scan still averages each trial's kernels over prior draws.

Run:  python demos/03_paradox_scan.py   (about 1 s)
"""

from starparadox import (
    PatternCounts,
    paradox_scan,
    simulate_counts,
    tree_posterior,
)
from starparadox.priors import UniformPrior

prior = UniformPrior(1.0)
t, eps = 0.1, 0.05

print("== one dataset, one posterior ==")
counts = simulate_counts(t, 10_000, seed=4)
est = tree_posterior(prior, counts, (1, 1, 1))
print(f"star-tree counts: {counts.array}")
print(f"posterior over resolutions: {est.posterior.round(4)}")

print("\nA count vector with a mild excess of pattern 1 already locks in:")
skew = PatternCounts(753, 130, 59, 58)
est = tree_posterior(prior, skew, (1, 1, 1))
print(f"counts {skew.array} -> posterior {est.posterior.round(6)}")

print(f"\n== frequency of posterior(tree 1) >= {1-eps} under star data ==")
rows = paradox_scan(prior, t, eps, [100, 1000, 10000], trials=1000,
                    n_samples=4096, seed=7)
for r in rows:
    print(f"  n={r.n:>6}: delta = {r.delta_hat:.4f}  Wilson 95% = [{r.ci_lo:.4f}, {r.ci_hi:.4f}]")
print("\nThe frequency stays bounded away from zero (here it even grows):")
print("longer star-tree sequences do not rescue the posterior from")
print("spurious certainty.  That is the paradox.")

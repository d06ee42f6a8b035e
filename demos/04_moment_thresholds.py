"""The moment-ratio mechanism behind the paradox.

For V on [0, 1] with M_t = E[V^t] and R_t = 1 - M_{t+1}/M_t, a tail
P(V >= v) ~ (1 - v)^alpha near 1 forces 2 t R_t -> 2 alpha, so
2 t R_t >= alpha holds for every t past a finite threshold t*.  Inside
the paradox argument V = zeta(U) is driven by the prior through the
conditional CDF G, and the threshold is what converts the expansion of
G into posterior dominance.

Run:  python demos/04_moment_thresholds.py   (about 1 s)
"""

import numpy as np

from starparadox.moments import (
    ConditionalZetaV,
    QuadraticV,
    TailParams,
    UniformV,
    certified_gap_curve,
    geometric_grid,
    lemma_chi_check,
    moment_curve,
    moment_mt,
    threshold_scan,
)
from starparadox.priors import UniformPrior
from starparadox.tempering import default_z_grid

grid = geometric_grid(0.05, 500.0)

print("== closed-form sanity: V uniform ==")
print(f"M_1, M_2, M_10 = {moment_mt(UniformV(), 1):.6f}, "
      f"{moment_mt(UniformV(), 2):.6f}, {moment_mt(UniformV(), 10):.6f}")
scan = threshold_scan(UniformV(), 1.0, grid)
print(f"2t R_t = 2t/(t+2) crosses 1 at t = 2; scanned t* = {scan.t_star:.4f}")
scan = threshold_scan(QuadraticV(), 1.0, grid)
print(f"density 2v (smooth, positive at 1): scanned t* = {scan.t_star:.4f} (exact 3)")

print("\n== certified threshold from a tail expansion alone ==")
params = TailParams(alpha=1.0, eps=(0.0, 1.0, 3.0), gamma=(1.0, 0.5, 0.2))
cert = threshold_scan(params, 1.0, geometric_grid(1.0, 2e4, 32))
print(f"tail ~ (1-v) + 0.5 (1-v)^2 +- 0.2 (1-v)^4: certified t* = {cert.t_star:.3f}")
rep = lemma_chi_check(params, geometric_grid(1.0, 1e4, 16))
print(f"chi bounds: beta = {rep.beta}, max violations "
      f"{rep.max_violation_diff:.2e} / {rep.max_violation_lower:.2e} (<= 0 expected)")
curve = certified_gap_curve(params, np.array([5.0, 50.0, 500.0]))
print(f"certified lower bound on 2tR_t at t = 5, 50, 500: {np.round(curve, 4)}")

print("\n== the variable the paradox actually uses ==")
prior = UniformPrior(1.0)
print("V = zeta(U) conditioned on 4P0 - 1 = z, its tail given by G(z, .):")
for z in default_z_grid(0.1, 3):
    dist = ConditionalZetaV(prior, float(z))
    scan = threshold_scan(dist, 0.5, geometric_grid(0.5, 5000.0, 32))
    print(f"  z = {z:.3f}: 2t R_t >= 0.5 for all t >= {scan.t_star:.3f} "
          f"(2tR_t at t=100: {moment_curve(dist, [100.0])[0, 4]:.4f})")
print("\nThe threshold is finite and stable across the band interval, which")
print("is exactly what the dominance step of the paradox argument needs.")

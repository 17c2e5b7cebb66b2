"""
Optimal transport between discrete measures
============================================

solve_w2 computes the squared-distance optimal coupling with an exact
LP solve.  An independent brute-force enumeration gives the same cost
on tiny instances, a probe searches the optimal face for a second
plan, and a symmetry of the space turns one optimal plan into another.
The probe keeps its solve_w2 result as ``base``, so each instance is
solved once.
"""

import numpy as np

from mmslab import (
    FiniteMMS,
    as_measure,
    brute_force_w2,
    delta,
    hawaiian_truncation,
    lift_to_geodesic_plan,
    symmetrized_competitor,
    uniform_on,
    uniqueness_probe,
    verify_competitor,
)

# === a tiny random instance, solved twice ===

rng = np.random.default_rng(7)
pts = rng.uniform(0.0, 1.0, size=(5, 2))
diff = pts[:, None, :] - pts[None, :, :]
sp = FiniteMMS(dist=np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)),
               weight=np.ones(5))

mu0 = as_measure(sp, {0: 0.5, 1: 0.5})
mu1 = as_measure(sp, {2: 0.25, 3: 0.25, 4: 0.5})
# the probe's base is its LP solve; a generic instance has a unique plan
probe = uniqueness_probe(sp, mu0, mu1)
res = probe.base
exact = brute_force_w2(sp, mu0, mu1)
print(f"LP cost        {res.cost:.15f}")
print(f"brute force    {exact:.15f}")
print(f"difference     {abs(res.cost - exact):.2e}")
print(f"W2 distance    {res.w2:.15f}")
print("coupling atoms:", [(i, j, round(m, 4))
                          for i, j, m in res.coupling.entries()])
print(f"uniqueplan?    {probe.unique} (certificate {probe.certificate}, "
      f"deviation {probe.deviation:.2e})")

# === non-uniqueness from a symmetry ===
#
# On a wedge of three circles, reflect the largest circle across the
# base point.  Send mass from the second circle to a pair of cells
# swapped by the reflection; the source is equidistant from both, so
# reflecting the optimal plan yields a different plan of equal cost.

ear = hawaiian_truncation(3, 24)
m = ear.meta["cells_per_circle"]
perm = np.arange(ear.n)
perm[1:m] = perm[m - 1:0:-1]   # circle 0 holds cells 1..m-1: arc p goes to m - p

source = [1 + (m - 1) + j for j in range(3, 7)]   # arc on circle 2
x = 5                                             # a cell on circle 1
mu0 = uniform_on(ear, source)
mu1 = as_measure(ear, {x: 0.5, int(perm[x]): 0.5})

probe = uniqueness_probe(ear, mu0, mu1)
plan = lift_to_geodesic_plan(ear, probe.base.coupling)
competitor = symmetrized_competitor(ear, perm, plan, x=x, iso_tol=1e-9)
report = verify_competitor(ear, plan, competitor, tol=1e-9)
print(f"competitor ok? {report.ok}")
print(f"  same marginals ({report.marginal_defect:.1e}), "
      f"same cost ({report.cost_defect:.1e}), "
      f"plans differ by {report.plan_difference:.3f} in total variation")
print(f"probe agrees:  unique={probe.unique} "
      f"(certificate {probe.certificate}, deviation {probe.deviation:.2e})")

"""
Isometry groups and their fixed sets
=====================================

On a wedge of circles every measure-preserving isometry is a product
of per-circle reflections, so the group is (Z/2)^n.  The enumerator
finds it as a stabilizer chain and lists it exactly; the chain also
certifies orders far too large to list.  fixed_set measures what each
map leaves in place,
and two probes quantify how close the group comes to having arbitrarily
small nontrivial motions.
"""

import math

import numpy as np

from mmslab import (
    EuclideanIsometry,
    condition_a_scan,
    critical_scale,
    displacement,
    enumerate_isometries,
    euclidean_power_escape,
    fixed_set,
    generate_subgroup,
    hawaiian_truncation,
    small_subgroup_probe,
)

# === the full group of a 6-circle wedge ===

sp = hawaiian_truncation(6, 64)
res = enumerate_isometries(sp, iso_tol=1e-9)
print(f"enumeration complete={res.complete}: {len(res.maps)} maps "
      f"(chain order {res.order}, base of {len(res.base)} cells, "
      f"{res.nodes} search nodes)")

# 30 circles: 2^30 maps are too many to list, but the chain counts them
big_sp = hawaiian_truncation(30, 8)
big = enumerate_isometries(big_sp, iso_tol=1e-9)
print(f"30-circle wedge: order {big.order} = 2^{big.order.bit_length() - 1}"
      f", certified from {len(big.base)} base cells in {big.nodes} nodes "
      f"({len(big.maps)} maps listed)")
# the displacement reads orbits, so the chain's generators serve for the
# whole group: on the unit ball the second circle's flip moves a cell by
# pi/4
print(f"30-circle wedge: displacement at x=0, r=1 is "
      f"{displacement(big_sp, big.generators, r=1.0, x=0):.4f} "
      f"(pi/4 = {math.pi / 4:.4f}), from {len(big.generators)} generators")

group = generate_subgroup(sp, [m.perm for m in res.maps])
print(f"closure: order {len(group)}, closed={group.closed}")

# fixed mass of each map; the identity keeps everything, a reflection
# of circle k keeps everything but that circle (minus two cells)
masses = sorted(fixed_set(sp, m.perm, fix_tol=1e-9).mass for m in res.maps)
print(f"fixed masses range {masses[0]:.4f} .. {masses[-1]:.4f} "
      f"(total {sp.total_mass:.4f})")

# === condition (a): fixed sets are small inside a large ball ===

rep = condition_a_scan(sp, 0, 2.0 * sp.diameter, fix_tol=1e-9, maps=res)
print(f"condition (a) holds={rep.holds}: largest fixed mass "
      f"{rep.fix_sup:.4f} vs ball mass {rep.ball_mass:.4f} "
      f"(gap {rep.gap:.4f}, smallest circle {2 * math.pi / 36:.4f})")

# === almost-trivial subgroups ===
#
# reflecting the smallest circle moves nothing farther than that
# circle's half-circumference, so for epsilon above pi/8 (circle 8 of
# an 8-circle wedge) a nontrivial subgroup of small movers exists

sp8 = hawaiian_truncation(8, 64)
full = enumerate_isometries(sp8, iso_tol=1e-9)
probe = small_subgroup_probe(sp8, 2.0 * math.pi / 64, maps=full)
print(f"\nsmall-mover subgroup found={probe.found}: order "
      f"{len(probe.subgroup)}, sup displacement {probe.sup_displacement:.4f}")

# the displacement profile of that subgroup around the base point
disp = displacement(sp8, probe.subgroup.elements, r=1.0, x=0)
print(f"displacement of the subgroup on the unit ball: {disp:.4f}")

# the scale above which the full group stops moving the half-ball by
# r/20: every map moves some cell of the largest circle a distance pi,
# so the crossing sits near r = 20 pi
crit = critical_scale(sp8, full.perms(), x=0, lo=0.8, hi=63.0)
print(f"critical scale r={crit.r:.4f} (20 pi = {20 * math.pi:.4f}), "
      f"displacement there {crit.displacement:.4f}")

# === powers of a Euclidean motion escape any small ball ===
#
# a rotation by an irrational angle composed with a translation has
# tiny displacement at first, but some power moves the half-ball by
# any fixed threshold

iso = EuclideanIsometry(
    q=np.array([[math.cos(1e-3), -math.sin(1e-3)],
                [math.sin(1e-3), math.cos(1e-3)]]),
    v=np.array([2e-4, 0.0]))
first = euclidean_power_escape(iso, threshold=5e-324, max_pow=1)
esc = euclidean_power_escape(iso, threshold=0.05)
print(f"\none step moves the half-ball {first.displacement:.2e}; "
      f"power {esc.n} moves it {esc.displacement:.4f}")

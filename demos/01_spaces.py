"""
Building and validating finite metric measure spaces
=====================================================

Every object in this library is a FiniteMMS: a symmetric distance
matrix, a weight vector, and optional coordinates.  The generators
produce weighted discretizations of a few model spaces, and the
validator certifies the metric and measure axioms cell by cell.
"""

import math
import os
import tempfile

import numpy as np

from mmslab import (
    FiniteMMS,
    NecklaceParams,
    euclidean_ball_grid,
    hawaiian_truncation,
    load_space,
    necklace,
    save_space,
    segment_space,
    validate_space,
    circle_space,
)

# a hand-built three-point space
tri = FiniteMMS(
    dist=np.array([[0.0, 1.0, 1.0],
                   [1.0, 0.0, 1.5],
                   [1.0, 1.5, 0.0]]),
    weight=np.array([1.0, 2.0, 1.0]),
)
print(f"triangle: n={tri.n}, mass={tri.total_mass}, diameter={tri.diameter}")

# the segment [0, pi/2] with a cos^2 weight profile
seg = segment_space(math.pi / 200)
print(f"segment:  n={seg.n}, mass={seg.total_mass:.6f} "
      f"(continuum value pi/4 = {math.pi / 4:.6f})")

# a circle of circumference 2*pi split into 24 cells
circ = circle_space(1.0, 24)
print(f"circle:   n={circ.n}, pitch={circ.pitch():.6f}")

# the first three circles of the earring chain, wedged at a point
ear = hawaiian_truncation(3, 24)
print(f"earring:  n={ear.n}, circles={ear.meta['circles']}, "
      f"diameter={ear.diameter:.6f}")

# a two-bead necklace: the segment with two diamonds grafted on
neck = necklace(NecklaceParams(beads=((0.4, 0.3), (1.1, 0.3)),
                               resolution=math.pi / 640))
print(f"necklace: n={neck.n}, mass={neck.total_mass:.6f}")

# a square grid filling the unit disk
ball = euclidean_ball_grid(2, 1.0, 0.125)
print(f"disk:     n={ball.n}, cell side={ball.meta['pitch']}")

# validate each one; the report carries the worst defect found and the
# certificate that covers every triple: "exhaustive" up to 300 cells,
# "graph" above that on path metrics, "sample" (which certifies nothing)
# where the graph witness fails
for name, sp in [("triangle", tri), ("segment", seg), ("circle", circ),
                 ("earring", ear), ("necklace", neck), ("disk", ball)]:
    rep = validate_space(sp, seed=0)
    print(f"validate {name:9s}: ok={rep.ok} n={sp.n} "
          f"worst triangle defect {rep.worst_triangle_defect:.2e}, "
          f"certificate {rep.certificate} "
          f"(bound {rep.triangle_defect_bound:.2e})")

# spaces round-trip through JSON files: an explicit file holds the whole
# distance matrix, a recipe file only the generator and its parameters,
# from which loading rebuilds the space bit for bit
with tempfile.TemporaryDirectory() as work:
    explicit = os.path.join(work, "circle.json")
    save_space(circ, explicit)
    recipe = os.path.join(work, "necklace.json")
    save_space(neck, recipe, dist_mode="recipe")
    print(f"files:    circle explicit {os.path.getsize(explicit)} bytes, "
          f"necklace recipe {os.path.getsize(recipe)} bytes")
    exact = all(np.array_equal(sp.dist, again.dist)
                and np.array_equal(sp.weight, again.weight)
                for sp, again in [(circ, load_space(explicit)),
                                  (neck, load_space(recipe))])
print("round trip exact:", exact)

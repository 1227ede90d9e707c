"""Walkthrough: smallest-homothet containment and optimality certificates.

Solves a few containment problems by hand-sized examples, then shows how
a certificate (touching points, supporting normals, convex weights)
proves that the reported dilation cannot be improved.
"""

import numpy as np

from homothetics import Container, PointSet, reflect
from homothetics.containment import NotOptimalError, Solution, make_certificate, min_containment
from homothetics.instances import regular_simplex, standard_container

np.set_printoptions(precision=4, suppress=True)

print("=== 1. Two points in the Euclidean ball ===")
P = PointSet([[0.0, 0.0], [2.0, 0.0]])
ball = Container.ball(2)
sol = min_containment(P, ball)
print(f"radius rho = {sol.rho:.4f}, center = {sol.center}")
cert = make_certificate(P, ball, sol)
print("touching points:", cert.touch_points.tolist())
print("supporting normals:", cert.normals.tolist())
print("convex weights:", cert.lam, "-> weighted normal sum:", cert.lam @ cert.normals)

print()
print("=== 2. A simplex inside its own reflection ===")
# the most lopsided containment there is: covering the simplex with -T
# requires dilation equal to the dimension
for d in (2, 3, 4, 5):
    P, T = regular_simplex(d)
    sol = min_containment(P, reflect(T))
    print(f"d={d}: R(T^{d}, -T^{d}) = {sol.rho:.6f}")

print()
print("=== 3. Why a candidate fails ===")
P = PointSet([[0.0, 0.0], [2.0, 0.0]])
center = np.array([1.3, 0.0])
rho = float(np.max(np.linalg.norm(P.points - center, axis=1)))
try:
    make_certificate(P, ball, Solution(rho, center, (), (), np.zeros(2)))
except NotOptimalError as err:
    print(f"candidate (rho={rho:.3f}, c={center}) rejected: {err}")
    print("improving direction:", err.direction)
    step = 0.05 * err.direction
    worst = max(np.linalg.norm(p - (center - step)) for p in P.points)
    print(f"after a small move the worst distance drops to {worst:.4f} < {rho:.4f}")

print()
print("=== 4. Vertex-form containers give the same answers ===")
# the box given by its vertices gets its facets by double description,
# so both forms take the same facet program
box = standard_container("box", 2)
box_v = Container.from_vertices(box.vertices)
P = PointSet(np.random.default_rng(1).uniform(-1, 1, (12, 2)))
h = min_containment(P, box)
v = min_containment(P, box_v)
print(f"half-space form: rho = {h.rho:.10f}")
print(f"vertex     form: rho = {v.rho:.10f}")

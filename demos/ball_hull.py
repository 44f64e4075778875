"""The ball embedding and its bounded hulls.

Composing the cube embedding with equal-area disc-square maps on every
coordinate pair gives an embedding of the ball of capacity 1 whose
z-sections, even after filling in all bounded holes (the "bounded
hull"), have area at most a = 1/c.  The slit is what makes this work:
without it each annular section would enclose a hole, and the hull would
overshoot the bound.

Run:  python3 demos/ball_hull.py
"""
import numpy as np

from cubewrap import EmbeddingConfig, build_psi, check_hull_bound, check_symplectic
from cubewrap.maps import SMOOTH_MARGIN
from cubewrap.topology import bounded_hull, rasterize_psi_section

config = EmbeddingConfig(n=2, c=2.0)
a = 0.5

psi = build_psi(config, a=a)
# 2000 ball points off the singular loci: the check reads only those
X = psi.sample_domain(np.random.default_rng(0), 2000, margin=SMOOTH_MARGIN)
rep = check_symplectic(psi, X)
print(f"ball embedding, a = {a} (c = {1 / a})")
print(f"  max symplectic defect: {rep.max_deviation:.2e}")

# one section, rasterized over a box around the radius-1/sqrt(pi) disc
z = (0.3, 0.7)
r = rasterize_psi_section(z, config, a, N=512)
hull = bounded_hull(r)
print(f"\nsection at z = {z}, N = 512:")
print(f"  raster area : {r.area():.4f}")
print(f"  hull area   : {hull.area():.4f}  (bound: a = {a})")
print(f"  hull adds   : {int(hull.occupancy.sum() - r.occupancy.sum())} cells")

# sweep a small z-grid for a few bounds
for a_k in (1.0, 0.5, 0.25):
    hr = check_hull_bound(a_k, config, grid=(5, 5), N=512)
    status = "ok" if hr.all_within_bound else "VIOLATED"
    print(
        f"\na = {a_k}: max hull area {hr.max_hull_area:.4f} "
        f"<= {a_k} + {hr.tolerance:.4f}  [{status}]"
    )
    print(f"  hull == section for every tested z: {hr.hull_equals_section}")

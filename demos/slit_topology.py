"""Why the section complement stays path-connected.

The section is an annular band, and a closed annulus would trap a
bounded complement component inside it.  The band, however, carries a
zero-width radial slit (the image of the one removed angle), and a path
can sneak through it from the enclosed region to infinity.  This demo
counts the complement components of rasters of a real section and of two synthetic controls, and
checks the analytic slit path point by point.

Run:  python3 demos/slit_topology.py
"""
import numpy as np

from cubewrap import EmbeddingConfig, check_complement_connected, make_lambda, section_of_phi
from cubewrap.sections import section_membership_many
from cubewrap.topology import (
    Raster,
    annulus_fixture,
    annulus_with_slit_fixture,
    complement_components,
    rasterize_section,
)

config = EmbeddingConfig(n=2, c=2.0)
z = (0.3, 0.7)

print("synthetic controls (4-connectivity, complement in the plane):")
for name, r in [
    ("closed annulus", annulus_fixture(256)),
    ("annulus with slit", annulus_with_slit_fixture(256)),
]:
    print(f"  {name:20s}: {complement_components(r)} complement component(s)")

print(f"\nreal section at z = {z}:")
for N in (256, 512, 1024):
    connected, rep = check_complement_connected(z, config, N)
    print(
        f"  N = {N:4d}: {rep.components} component(s), "
        f"occupied fraction {rep.occupied_fraction:.3f}"
    )

# Cell-centre membership with no slit corridor shows what discretization
# alone would do: at any finite resolution the zero-width slit closes
# and a hole appears
opened = rasterize_section(z, config, 512)
t = opened.cell_offsets()
centres = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
r_closed = Raster(n=512, occupancy=section_membership_many(centres, z, config))
print(
    f"\nwithout the slit corridor (N = 512): "
    f"{complement_components(r_closed)} components (hole trapped)"
)

# The slit path: λ of the slit angle at 1000 heights t, from the square's
# boundary (t -> 0) to the puncture (t -> 1), each tested against the section.
t = (np.arange(1000) + 0.5) / 1000
pts = make_lambda().forward(np.stack([np.full_like(t, section_of_phi(z, config).slit_angle), t], axis=-1))
outside = not section_membership_many(pts, z, config).any()
print(f"\nslit path witness: {len(pts)} samples, all outside the section: {outside}")
print(f"  starts near the boundary at {pts[0].round(4)}")
print(f"  ends near the puncture at  {pts[-1].round(4)}")

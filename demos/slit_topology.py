"""Why the section complement stays path-connected.

The section is an annular band, and a closed annulus would trap a
bounded complement component inside it.  The band, however, carries a
zero-width radial slit (the image of the one removed angle), and a path
can sneak through it from the enclosed region to infinity.  This demo
flood-fills rasters of a real section and of two synthetic controls, and
checks the analytic slit path point by point.

Run:  python3 demos/slit_topology.py
"""
from cubewrap import EmbeddingConfig, check_complement_connected, slit_path_witness
from cubewrap.sections import section_membership_many
from cubewrap.topology import (
    Raster,
    annulus_fixture,
    annulus_with_slit_fixture,
    complement_components,
    phi_section_cells,
)

config = EmbeddingConfig(n=2, c=2.0)
z = (0.3, 0.7)

print("synthetic controls (flood fill, 4-connectivity, complement in the plane):")
for name, r in [
    ("closed annulus", annulus_fixture(256)),
    ("annulus with slit", annulus_with_slit_fixture(256)),
]:
    labels = complement_components(r)
    print(f"  {name:20s}: {labels.count} complement component(s)")

print(f"\nreal section at z = {z}:")
for N in (256, 512, 1024):
    connected, rep = check_complement_connected(z, config, N)
    print(
        f"  N = {N:4d}: {rep.components} component(s), "
        f"occupied fraction {rep.occupied_fraction:.3f}"
    )

# Cell-centre membership with no slit stamp shows what discretization
# alone would do: at any finite resolution the zero-width slit closes
# and a hole appears
cells = phi_section_cells(512)
occ = section_membership_many(cells.points, z, config, cells=cells)
r_closed = Raster(n=512, occupancy=occ.reshape(512, 512))
print(
    f"\nwithout the slit stamp (N = 512): "
    f"{complement_components(r_closed).count} components (hole trapped)"
)

pts, outside = slit_path_witness(z, config, steps=1000)
print(f"\nslit path witness: {len(pts)} samples, all outside the section: {outside}")
print(f"  starts near the boundary at {pts[0].round(4)}")
print(f"  ends near the puncture at  {pts[-1].round(4)}")

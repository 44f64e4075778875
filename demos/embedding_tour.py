"""A guided tour of the cube-into-polydisc embedding.

Builds the embedding for a few values of the stretch parameter c,
pushes random cube points through it, and prints the headline numbers:
symplectic defect, containment counts, and a Monte Carlo estimate of the
image volume (which must equal the cube volume, 1).

Run:  python3 demos/embedding_tour.py
"""
import numpy as np

from cubewrap import EmbeddingConfig, build_phi, check_symplectic

rng = np.random.default_rng(0)

for c in (1.0, 2.0, 4.0):
    config = EmbeddingConfig(n=2, c=c)
    phi = build_phi(config)
    print(f"\n=== c = {c} : (0,1)^4 -> (0,1)^3 x (0,{c}) ===")

    # a single point, step by step
    x = np.array([0.25, 0.5, 0.5, 0.25])
    y = phi.forward(x)
    print(f"  phi({x}) = {np.round(y, 6)}")

    # the differential preserves the symplectic form everywhere smooth
    rep = check_symplectic(phi, samples=2000, seed=1)
    print(f"  max symplectic defect over {rep.samples} samples: {rep.max_deviation:.2e}")

    # every image lands strictly inside the open polydisc
    X = rng.uniform(0, 1, (100_000, 4))
    Y = phi.forward(X)
    inside = (
        np.all((Y[:, :3] > 0) & (Y[:, :3] < 1), axis=1) & (Y[:, 3] > 0) & (Y[:, 3] < c)
    )
    print(f"  containment: {inside.sum()} / {len(X)} images inside the polydisc")

    # the image fills the polydisc up to the measure-zero seams, so a
    # uniform sample of the polydisc hits it with probability 1/c
    pts = rng.uniform(0, 1, (200_000, 4))
    pts[:, 3] *= c
    vol = phi.image_contains(pts).mean() * c
    print(f"  MC image volume: {vol:.4f} (target 1, cube volume is preserved)")

"""The slit path of a φ section as a sampled witness, for the tests: λ of
the slit angle at heights t in (0, 1), from the square's boundary
(t → 0) to the puncture (t → 1), every sample tested against the
section.  It reads only `make_lambda` and `section_membership_many`."""
import numpy as np

from cubewrap.maps import make_lambda
from cubewrap.sections import resolve_section, section_membership_many


def slit_path_witness(z, config, steps=1000):
    """(polyline, all_outside) for `steps` samples of the slit path."""
    sd = resolve_section(z, config)
    if sd.status != "generic":
        raise ValueError("the slit path exists only for generic sections")
    t = (np.arange(steps) + 0.5) / steps
    pts = make_lambda().forward(np.stack([np.full_like(t, sd.slit_angle), t], axis=-1))
    return pts, bool(~section_membership_many(pts, sd, config).any())

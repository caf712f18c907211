"""Write ``references.json``, the stored references the timed runs read.

    python3 perfbench/make_references.py

Run from the root of a checkout.  It takes one to two minutes on one core.

* ``ellipsoid_t_e``, ``aniso_ellipsoid_t_e``: ``find_extinction`` of the
  two ellipsoids of the extinction workload on a finer grid (256 x 48)
  with a tighter bisection tolerance (1e-4 of the lifetime).
* ``oval_rim``: rim radius per angle of the oval at the end of the full
  oval span, stepped graph-only (no tip patch) on 256 radial cells and
  read off by ``TipField.from_profile``.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from ovalab import evolve, grid  # noqa: E402
from ovalab.shrinkers import ellipsoid_initial  # noqa: E402

FINE_ELLIPSOID = (256, 48)
FINE_OVAL = (256, 32)
REL_TOL = 1.0e-4


def extinction_time(spec, y_max):
    g = grid.build_grid(*FINE_ELLIPSOID, y_max)
    res = evolve.find_extinction(ellipsoid_initial(g, spec), spec.t_start,
                                 rel_tol=REL_TOL)
    return res.t_extinct


def oval_rim():
    field = wl.oval_field(*FINE_OVAL)
    start = evolve.FlowState(time=wl.OVAL_TAU0, v=field, renormalized=True)
    hist = evolve.run(start, wl.OVAL_TAU0 + wl.SIZES["full"]["oval_span"],
                      snapshot_every=1.0)
    return evolve.TipField.from_profile(hist.states[-1].v).tip_radius().tolist()


def main():
    t0 = perf_counter()
    refs = {
        "command": "python3 perfbench/make_references.py",
        "ellipsoid_t_e": extinction_time(wl.REF_ELLIPSOID, 10.0),
        "aniso_ellipsoid_t_e": extinction_time(
            wl.ANISO_ELLIPSOID, 1.05 * max(wl.ANISO_ELLIPSOID.plane_semi_axes())),
        "oval_rim": oval_rim(),
    }
    with open(wl.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(json.dumps(refs))
    print(f"written {wl.REFERENCES} in {perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()

"""Cross-checks of the kinematic transport machinery.

Four independent consistency checks, each pairing two routes to the same
quantity:

1. grid transport vs characteristic (pathline) integration of the elastic
   deformation through a stored growth history;
2. deformation gradient from direct transport vs from the advected inverse
   motion, on a recirculating flow in a periodic strip;
3. determinant preservation along characteristics of a divergence-free
   flow (second-order drift: halving dt cuts it 4x);
4. spatial compatibility of the transported deformation gradient.

Usage: python3 demos/transport_verification.py
"""

import math

import numpy as np

from surfgrow import (MaterialParams, PeriodicStrip, ScenarioConfig,
                      integrate_characteristics, run_non_normal,
                      trace_history_pathlines, pathline_grid_discrepancy)
from surfgrow.kinematics import (advance_deformation_strip,
                                 advance_inverse_motion,
                                 deformation_from_inverse_motion,
                                 strip_row_curl, strip_velocity_gradient)
from surfgrow.tensors import det, identity, inverse


def cellular_velocity(strip, amplitude=0.05):
    X1, X2 = strip.centers
    v1 = amplitude * np.pi * np.cos(np.pi * X2 / strip.height) \
        * np.cos(2 * np.pi * X1 / strip.length) / strip.height
    v2 = 2 * np.pi * amplitude * np.sin(np.pi * X2 / strip.height) \
        * np.sin(2 * np.pi * X1 / strip.length) / strip.length
    return np.stack([v1, v2], axis=-1)


def two_routes(n, T=0.3):
    strip = PeriodicStrip(n1=n, n2=n)
    v = cellular_velocity(strip)
    L = strip_velocity_gradient(v, strip)
    steps = int(round(T * n / 0.2))
    dt = T / steps
    F = identity((n, n))
    q = np.zeros((n, n, 2))
    for _ in range(steps):
        F = advance_deformation_strip(F, v, L, strip, dt)
        q = advance_inverse_motion(q, v, strip, dt)
    return strip, F, deformation_from_inverse_motion(q, strip)


def main():
    print("# 1. grid vs characteristic transport of F_e (growth history)")
    for n in (100, 200, 400):
        cfg = ScenarioConfig(kind="non_normal",
                             params=MaterialParams(G=1.0, mu=0.1, rho=1.0),
                             alpha=0.5, n_cells=n, t_end=1.0)
        res = run_non_normal(cfg)
        gap = pathline_grid_discrepancy(res, trace_history_pathlines(res, 20))
        # seeds (i + 1/2)/20 sit on the fixed grid's centers when n/20 is odd;
        # a pathline there takes the cell's own step
        note = "  (seeds on cell centers)" if n % 40 == 20 else ""
        print(f"  n={n:4d}: Linf gap = {gap:.4e}{note}")

    print("\n# 2. deformation gradient via transport vs via inverse motion")
    prev = None
    for n in (32, 64, 128):
        _, F, F_chi = two_routes(n)
        gap = float(np.max(np.abs(F - F_chi)))
        order = f"  (order {math.log2(prev / gap):.2f})" if prev else ""
        print(f"  n={n:4d}: Linf gap = {gap:.4e}{order}")
        prev = gap

    print("\n# 3. determinant drift along characteristics (div-free flow)")

    def sampler(x, t):
        return (np.array([math.sin(x[1]), math.sin(x[0])]),
                np.array([[0.0, math.cos(x[1])], [math.cos(x[0]), 0.0]]))

    prev = None
    for dt in (0.02, 0.01, 0.005):
        pl = integrate_characteristics(sampler, np.array([0.3, 0.7]), 0.0, 2.0,
                                       dt, np.eye(2))
        drift = float(np.abs(det(pl.F_e) - 1.0).max())
        note = f"  (ratio {prev / drift:.2f})" if prev else ""
        print(f"  dt={dt:<6g}: max|det F - 1| = {drift:.3e}{note}")
        prev = drift

    print("\n# 4. compatibility: row-curl of F^{-1} (a spatial gradient field)")
    for n in (32, 64, 128):
        strip, F, _ = two_routes(n)
        curl = float(np.abs(strip_row_curl(inverse(F), strip)).max())
        print(f"  n={n:4d}: max row-curl = {curl:.4e}")


if __name__ == "__main__":
    main()

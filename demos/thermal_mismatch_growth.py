"""Deposition with an isotropic attachment mismatch (hot material, cool body).

Each new layer attaches carrying F_e = (1/alpha) I: it would shrink by the
factor alpha if unconstrained.  In the through-thickness reduction the
pressure field accommodates the mismatch, the body stays at rest, and the
mismatch is stored kinematically.  Reconstructing the reference afterwards
exposes it: the recovered relaxed shape of the deposited material is
alpha I, not the identity, while the substrate keeps F_relax = I.

Usage: python3 demos/thermal_mismatch_growth.py [out_dir]
"""

import sys

import numpy as np

from surfgrow import (MaterialParams, ScenarioConfig, reconstruct_reference,
                      run_thermal, write_fields)


def main(out_dir=None):
    config = ScenarioConfig(kind="thermal",
                            params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                            alpha=0.8, H0=0.5, V_G=1.0, n_cells=200, t_end=1.0)
    result = run_thermal(config)
    rec = result.final
    print(f"deposition with alpha = {config.alpha}: substrate [0, {config.height0}],"
          f" grown up to H = {rec.grid.height:g}")
    print(f"  traction-free residual (max over steps): "
          f"{result.max_metric('traction_residual'):.2e}")
    print(f"  base velocity: {max(abs(float(r.v_nodes[0])) for r in result.history):.1e}"
          f"   max |v| anywhere: "
          f"{max(float(np.abs(r.v_nodes).max()) for r in result.history):.1e}")

    frames = reconstruct_reference(result.history)
    final = frames[-1]
    print("\n# recovered kinematics at t_end (reference = earliest stored state)")
    print(f"{'x2':>6} {'F_e11':>9} {'F11':>9} {'F_relax11':>10}")
    for x2 in (0.1, 0.4, 0.6, 0.9, 1.2, 1.45):
        j = int(np.argmin(np.abs(rec.grid.centers - x2)))
        print(f"{x2:6.2f} {rec.F_e0[j, 0, 0]:9.5f} {final.F[j, 0, 0]:9.5f} "
              f"{final.F_relax[j, 0, 0]:10.5f}")
    print("\nthe deposited region stores its shrunken zero-stress shape in "
          "F_relax while F stays compatible (identity here: nothing moved)")

    if out_dir:
        manifest = write_fields(result, out_dir)
        print(f"\nwrote {len(manifest.files)} files to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)

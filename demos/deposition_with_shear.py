"""Layer deposition with horizontal feed: momentum transfer shears the body.

Material arrives over the top surface moving horizontally at speed v0
(mass rate rho h v0 / L), so the growth surface develops the shear
traction M v0 even though the external traction vanishes.  The body
responds by jumping into a uniform shear state which then persists: the
stress, the elastic deformation, and the (zero) velocity are all exact on
any grid, which makes this scenario a scheme-exactness check.

Usage: python3 demos/deposition_with_shear.py [out_dir]
"""

import sys

import numpy as np

from surfgrow import (MaterialParams, ScenarioConfig, run_fdm_shear,
                      total_stress, write_fields)


def main(out_dir=None):
    config = ScenarioConfig(kind="fdm_shear",
                            params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                            h=0.1, v0=1.0, L=1.0, H0=1.0, n_cells=200, t_end=2.0)
    M = config.mass_rate
    print(f"mass rate M = rho h v0 / L = {M:g};  expected steady state: "
          f"sigma12 = {M * config.v0:g}, sigma11 = {(M * config.v0) ** 2:g}, "
          f"F_e12 = {M * config.v0 / config.params.G:g}, v1 = 0")

    result = run_fdm_shear(config)
    rec = result.final
    F12 = rec.F_e12
    sigma = total_stress(rec.F_e, rec.grad_v, rec.p, config.params)
    sigma12, sigma11 = sigma[:, 0, 1], sigma[:, 0, 0]
    print(f"\nafter t = {rec.t:g}:")
    print(f"  H(t)           = {rec.grid.height!r}  "
          f"(exact {config.height0 + M / config.params.rho * config.t_end!r})")
    print(f"  max |v1|       = {np.abs(rec.v_nodes).max():.2e}")
    print(f"  F_e12 range    = [{F12.min():.12f}, {F12.max():.12f}]")
    print(f"  sigma12 range  = [{sigma12.min():.12f}, {sigma12.max():.12f}]")
    print(f"  sigma11 range  = [{sigma11.min():.12f}, {sigma11.max():.12f}]")
    # each level's cells against the same cells at the next level (only
    # F_e12 evolves)
    drift = max(float(np.max(np.abs(a.F_e12 - b.F_e12[:len(a.F_e12)])))
                for a, b in zip(result.history, result.history[1:]))
    print(f"  step-to-step field drift = {drift:.2e} (steady after the initial jump)")

    if out_dir:
        manifest = write_fields(result, out_dir)
        print(f"\nwrote {len(manifest.files)} files to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)

#!/usr/bin/env python3
"""Cross-check the extracted stability boundaries against closed forms.

For the exponential (m2) and cubic (m4) laws the trace condition of the
1-DOF plant is solvable by hand; this script compares those curves with
the exact-threshold extraction and reports the worst relative error,
plus the cell-normalized separation between the 1-DOF and damping-matched
FE boundaries.
"""

import math

from drillstab.fem import assemble
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS,
                                 W_REF_KN, reference_model, reference_plant)
from drillstab.stability import boundary_separation, map_deterministic


def main() -> None:
    plant = reference_plant()

    def m2_wstar(om):
        t_sb, t_cb, g_b = REFERENCE_PARAMS[2]
        return W_REF_KN * plant.c_eq * math.exp(g_b * om) / (1000 * (t_sb - t_cb) * g_b)

    def m4_wstar(om):
        _, c1, c2, c3 = REFERENCE_PARAMS[4]
        slope = c1 + 2 * c2 * om + 3 * c3 * om * om
        return math.inf if slope >= 0 else W_REF_KN * plant.c_eq / (1000 * -slope)

    for kind, oracle in ((2, m2_wstar), (4, m4_wstar)):
        grid, curve = map_deterministic(reference_model(kind), plant, W_REF_KN)
        errs = [abs(w - oracle(om)) / oracle(om) for om, w in curve.points]
        print(f"m{kind}: {len(curve)} boundary points, worst |dW|/W = "
              f"{max(errs):.2e}")

    omega_star = math.log(1000 * 6.5 * 0.3 / plant.c_eq) / 0.3
    print(f"m2 crossing through W = W_ref: omega* = {omega_star:.4f} rad/s "
          f"({omega_star * 30 / math.pi:.1f} RPM)")

    plants = {
        "1dof": plant,
        "2dof (beta=0.006)": assemble(REFERENCE_GEOMETRY, 1, 1, 0.5, 0.006),
        "10dof (beta=0.0021)": assemble(REFERENCE_GEOMETRY, 8, 2, 0.5, 0.0021),
    }
    cell = grid.cell_sizes    # every map here covers the default window
    print("\ncell-normalized boundary separation (80x80 window):")
    for kind in (1, 2, 3, 4):
        model = reference_model(kind)
        curves = {n: map_deterministic(model, p, W_REF_KN)[1]
                  for n, p in plants.items()}
        names = list(plants)
        seps = {f"{a.split()[0]}/{b.split()[0]}":
                round(boundary_separation(curves[a], curves[b], cell), 3)
                for i, a in enumerate(names) for b in names[i + 1:]}
        print(f"  m{kind}: {seps}")


if __name__ == "__main__":
    main()

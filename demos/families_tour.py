"""Tour of the observation families and their stabilizing transforms.

Prints, for each built-in family, the variance-stabilizing map, the
Fisher information, the derivative identity linking them, and the
regularity audit used to qualify a family for the pipeline.
"""

import numpy as np

from lecam_equiv.families import check_regularity, fisher_info_quadrature, get_family

for name in ("bernoulli", "poisson", "gaussian_scale", "location_normal"):
    family = get_family(name)
    lo, hi = family.working_interval
    grid = np.linspace(lo, hi, 7)
    print(f"== {name} (working interval [{lo}, {hi}]) ==")
    print("  theta:          ", np.round(grid, 3))
    print("  gamma(theta):   ", np.round(family.gamma(grid), 4))
    print("  fisher(theta):  ", np.round(np.asarray(family.fisher(grid), dtype=float), 4))

    # gamma'(theta) should equal sqrt(fisher) -- the stabilization identity
    step = 1e-6 * np.maximum(1.0, np.abs(grid))
    num_deriv = (
        np.asarray(family.gamma(grid + step), dtype=float)
        - np.asarray(family.gamma(grid - step), dtype=float)
    ) / (2.0 * step)
    gap = np.max(np.abs(num_deriv - np.sqrt(np.asarray(family.fisher(grid), dtype=float))))
    print(f"  max |gamma' - sqrt(I)| on grid: {gap:.2e}")

    # quadrature recomputation of the information at one point
    mid = float(grid[3])
    print(
        f"  fisher quadrature at theta={mid:.3g}: "
        f"{fisher_info_quadrature(family, mid):.6f}"
    )

    report = check_regularity(family, np.linspace(lo, hi, 9), epsilon=0.05, beta=1.0)
    print(
        f"  regularity audit: r1={report.r1_sup_estimate:.3g} "
        f"r2={report.r2_sup_estimate:.3g} "
        f"fisher range=[{report.r3_bounds[0]:.3g}, {report.r3_bounds[1]:.3g}] "
        f"all_pass={report.all_pass()}"
    )
    print()

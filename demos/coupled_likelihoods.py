"""Coupling both likelihood processes on one probability space.

Builds joint draws whose score side reproduces the original experiment
and whose Gaussian side follows the heteroscedastic local Gaussian law
exactly, with the weighted sums matched through a quantile transform.
The Monte Carlo squared Hellinger distance between the coupled pairs
shrinks as n grows; the closeness audit checks the gap and tail events
behind that trend.
"""

from lecam_equiv.coupling import CouplingPlan, audit_cc_conditions, build_coupled_draw
from lecam_equiv.distances import mc_hellinger_coupled
from lecam_equiv.experiments import standard_test_pair
from lecam_equiv.families import get_family
from lecam_equiv.harness import derive_seed, stream_rng

family = get_family("bernoulli")
ALPHA = 0.75

print("== Monte Carlo H^2 between coupled experiments ==")
for n in (256, 1024, 4096):
    f, h = standard_test_pair(family, n)
    plan = CouplingPlan(family, f, h, n, grid_size=1 << 13)
    stack = build_coupled_draw(plan, [stream_rng(derive_seed(1, n, r)) for r in range(300)])
    report = mc_hellinger_coupled([stack])
    print(f"  n={n:>5d}: H^2 = {report.value:.3e} +- {report.mc_stderr:.1e}")

print()
print("== the same construction is exact for a location family ==")
loc = get_family("location_normal")
n = 1024
f, h = standard_test_pair(loc, n)
plan = CouplingPlan(loc, f, h, n, grid_size=1 << 12)
stack = build_coupled_draw(plan, [stream_rng(derive_seed(2, n, r)) for r in range(200)])
report = mc_hellinger_coupled([stack])
print(f"  location H^2 estimate: {report.value} +- {report.mc_stderr} (identical paths)")

print()
print("== closeness-condition audit on the coupled batch ==")
n = 1024
f, h = standard_test_pair(family, n)
plan = CouplingPlan(family, f, h, n, grid_size=1 << 13)
stack = build_coupled_draw(plan, [stream_rng(derive_seed(3, n, r)) for r in range(400)])
audit = audit_cc_conditions([stack], plan.r_n, ALPHA, eps=0.5)
print(f"  gap event freq:        {audit.gap_freq:.4f} +- {audit.gap_stderr:.4f}")
print(f"  original tail freq:    {audit.orig_tail_freq:.4f} +- {audit.orig_tail_stderr:.4f}")
print(f"  gaussian tail freq:    {audit.gauss_tail_freq:.4f} +- {audit.gauss_tail_stderr:.4f}")
print(f"  importance-weight ESS: {audit.effective_sample_size:.1f} reliable={audit.reliable}")

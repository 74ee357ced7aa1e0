"""
Ranking units with the posterior robustness index
==================================================

The index of a unit is the Fisher-Rao angle between the posterior and
what the posterior would have been without that unit.  Conforming
units barely move it; heterogeneous units move it a lot, but only
under a loss that still listens to them.  We plant five wild units,
compute the index under four losses, and watch the standard posterior
flag them while the robust posteriors shrug.
"""

import numpy as np

from ordrobust import (
    Dataset,
    LossSpec,
    Prior,
    WlbConfig,
    get_link,
    robustness_report,
    simulate_grid,
    wlb_sample,
)

link = get_link("probit")
prior = Prior()
config = WlbConfig(n_draws=150, seed=9)

# Five low-response units moved to the far right of the design: their
# observed category 1 is next to impossible at x near 4.
base = simulate_grid(seed=0)
X, y = base.X.copy(), base.y.copy()
planted = [i for i in range(base.n) if y[i] == 1 and X[i, 0] < -2.0][:5]
for i, target in zip(planted, (3.8, 3.9, 4.0, 4.1, 4.2)):
    X[i, 0] = target
data = Dataset(y=y, X=X, n_categories=4)
print(f"planted units: {planted}")

specs = [
    LossSpec(kind="loglik"),
    LossSpec(kind="dp", tuning=0.5),
    LossSpec(kind="gamma_synthetic", tuning=0.5),
    LossSpec(kind="gamma_general", tuning=0.5),
]
reports = {}
for spec in specs:
    fit = wlb_sample(spec, data, prior, link, config)
    reports[spec.kind] = robustness_report(fit, data)

# Index table for the planted units plus the median over the rest.
print(f"\n{'unit':<8}" + "".join(f"{s.kind:>18}" for s in specs))
for i in planted:
    print(f"{i:<8}" + "".join(f"{reports[s.kind].index[i]:>18.5f}" for s in specs))
rest = [i for i in range(data.n) if i not in set(planted)]
print(f"{'median':<8}" + "".join(
    f"{np.median(reports[s.kind].index[rest]):>18.5f}" for s in specs
))

top5 = np.argsort(reports["loglik"].index)[-5:]
print(f"\ntop-5 units by loglik index: {sorted(top5.tolist())}")
# Under the standard loss the planted units dominate the ranking by an
# order of magnitude; under the robust losses their index collapses to
# the conforming level, which is the point of using those losses.

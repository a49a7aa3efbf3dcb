"""
Largest representative subpopulation for a known effect profile
===============================================================

When the cell-level effects are treated as known, the audit question
changes: how much of the population can we keep while the kept-group
average still equals the estimand?  The answer has a one-tail trimming
form, and this script cross-checks it against two independent solvers.
"""

from estimand_audit import (
    cell_table,
    fixed_tau_bruteforce,
    fixed_tau_internal_validity,
    fixed_tau_lp,
    mu,
)

# Five cells with heterogeneous effects.  The estimand is the
# variance-weighted average; cells with extreme effects must be
# down-weighted for the kept-group mean to match it.
design = cell_table(
    labels=("a", "b", "c", "d", "e"),
    p=(0.15, 0.25, 0.2, 0.3, 0.1),
    a=(0.24, 0.09, 0.16, 0.2475, 0.21),
    tau=(-1.0, 0.5, 1.5, 2.0, 4.0),
)

mu0 = mu(design)
print("estimand value:", mu0)

report, trim = fixed_tau_internal_validity(design, mu0)
print("\nclosed-form trim")
print("  kept share of population:", trim.kept_mass)
print("  trim direction:", trim.direction)
print("  threshold atom (centered scale):", trim.alpha)
print("  fraction of threshold atom kept:", trim.atom_fraction)
print("  inclusion by cell:", report.inclusion.inclusion)

# Independent check 1: solve the mass-maximization program directly.
lp = fixed_tau_lp(design, mu0)
print("\nlinear program kept share:", lp)

# Independent check 2: enumerate candidate vertex solutions (viable
# because the design is small).
bf = fixed_tau_bruteforce(design, mu0)
print("vertex enumeration kept share:", bf)

assert abs(trim.kept_mass - lp) <= 1e-9
assert abs(trim.kept_mass - bf) <= 1e-9

# An infeasible target: no subpopulation averages to a value outside
# the range of cell effects, so every solver's kept share is zero.
report, trim = fixed_tau_internal_validity(design, 9.0)
print("\ntarget outside effect range -> exists:", report.exists,
      "kept:", trim.kept_mass)
assert fixed_tau_lp(design, 9.0) == fixed_tau_bruteforce(design, 9.0) == 0.0

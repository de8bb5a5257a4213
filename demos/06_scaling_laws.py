"""Desk-scale looks at the scaling laws.

Dense regime (fixed area, growing population): cooperative information per
agent grows with the node count, so the mean bound falls roughly like a
power of N; anchors-only performance is flat in the agent count. Extended
regime (fixed density, growing area): with unit amplitude loss exponent
the bound falls only like 1/log N, and for faster path loss it converges
to a constant -- distant nodes stop helping.

Note the dense fit here sits visibly steeper than the asymptotic exponent:
over desk-scale sweeps the usable (discounted) cooperation intensity per
peer is still rising; see the scaling summary JSON for both fits.
"""

from locbounds import default_spec, run_scaling

print("dense 20 m x 20 m network, 4 corner anchors, 60 trials/point")
spec = default_spec("dense_scaling", seed=3, trials=60)
result = run_scaling(spec)
print(f"{'Na':>5} {'coop mean SPEB':>15} {'anchors-only':>13}")
rows = {(r["cooperative"], r["na"]): r for r in result.rows}
for na in result.summary["sweep"]:
    coop = rows[(True, na)]["mean_speb_m2"]
    noncoop = rows[(False, na)]["mean_speb_m2"]
    print(f"{na:>5} {coop:>15.2f} {noncoop:>13.2f}")
coop_fit = result.summary["cooperative_fit_vs_log_n_total"]
flat_fit = result.summary["noncooperative_fit_vs_log_na"]
print(f"cooperative slope vs log(Nb+Na): {coop_fit['slope']:.3f} +- {coop_fit['ci95']:.3f}")
print(f"anchors-only slope vs log(Na):   {flat_fit['slope']:.3f} +- {flat_fit['ci95']:.3f}")

print("\nextended network, unit density, amplitude loss exponent b = 1")
ext = run_scaling(default_spec("extended_scaling", seed=3, trials=60))
for row, product in zip(ext.rows, ext.summary["mean_times_log_n"]):
    print(
        f"  N = {row['n_anchors']:>5}: mean SPEB = {row['mean_speb_m2']:.4f} m^2, "
        f"SPEB x log N = {product:.4f}"
    )
print(f"spread of SPEB x log N across the sweep: {ext.summary['mean_times_log_n_spread']:.3f}")

print("\nsame but b = 2 (power falls as 1/r^4): the bound converges")
ext2 = run_scaling(default_spec("extended_scaling", seed=3, trials=60, path_exponent=2.0))
for row in ext2.rows:
    print(f"  N = {row['n_anchors']:>5}: mean SPEB = {row['mean_speb_m2']:.4f} m^2")
print(f"terminal ratio: {ext2.summary['terminal_ratio']:.3f}")

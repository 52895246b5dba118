"""Every radius in the catalog: closed form against its independent oracle.

Run:  python demos/02_radius_catalog.py
"""

from parastar.radii import default_entries, get_entry, oracle_root

print(f"{'entry':32s} {'closed form':>16s} {'oracle root':>16s} {'gap':>9s}")
for entry in default_entries():
    root = oracle_root(entry)
    gap = abs(entry.closed_form - root)
    print(f"{entry.label:32s} {entry.closed_form:16.12f} {root:16.12f} {gap:9.2e}")

# The witnesses: at z0 = radius the extremal construction puts the
# logarithmic derivative exactly on the region boundary (margin 0).
print("\nwitness margins (should vanish):")
for eid, params in (("sp", {}), ("cosh_sqrt", {}), ("janowski", {"A": 0.5, "B": -0.5}),
                    ("ratio", {"A": -1.0})):
    entry = get_entry(eid, **params)
    print(f"  {entry.label:24s} {entry.witness_margin():+.3e}")

# Parameter sweeps follow the expected monotonicity.
print("\nstarlikeness order vs radius:")
for alpha in (0.0, 0.25, 0.5, 0.75):
    radius = get_entry("caratheodory", alpha=alpha).closed_form
    print(f"  order {alpha:.2f}: radius {radius:.10f}")

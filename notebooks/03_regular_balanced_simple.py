"""
When is a staged tree a linear exponential family?
==================================================

Staging two vertices ties their natural parameters together through
equations of the form  eta + sum of log-polynomials = eta' + ... .  When
those log terms cancel the constraint is linear; otherwise the model is a
curved subfamily.  Three nested structural conditions decide this:
simple => balanced => regular (= linear constraints).
"""

from stagedtree import (
    StagedTree,
    classify,
    constraint_matrix,
    stage_equations,
)

children = {
    "v1": ["v2", "v3"],
    "v2": ["v4", "v5"],
    "v3": ["v6", "v7"],
    "v4": ["l1", "l2"],
    "v5": ["l3", "l4"],
    "v6": ["l5", "l6"],
    "v7": ["l7", "l8"],
}

# Staging only the middle level (the "collider" pattern) is NOT regular.
collider = StagedTree(children, stages={"v2": "cyan", "v3": "cyan"})
report = classify(collider)
print("middle level staged only:", report)
for eq in stage_equations(collider):
    print("  stage equation:", eq.pretty(collider), "(linear)" if eq.linear else "(nonlinear)")

# Additionally pairing the third-level vertices diagonally makes every
# stage equation linear; the model is simple, hence balanced and regular.
simple_tree = StagedTree(
    children,
    stages={
        "v2": "cyan", "v3": "cyan",
        "v4": "red", "v6": "red",
        "v5": "green", "v7": "green",
    },
)
print("\ndiagonal third-level pairing:", classify(simple_tree))

# For a regular staging the constraints assemble into a 0/±1 matrix whose
# kernel dimension equals the model dimension d.  Each row is stored as the
# columns of its +1 and its -1, and the rank is the number of rows.
M = constraint_matrix(simple_tree)
print("\nconstraint matrix rows as (+1, -1) columns (coordinate order", M.coords, "):")
print(M.rows)
print("kernel dimension:", M.kernel_dimension(), "= d =", classify(simple_tree)["d"])

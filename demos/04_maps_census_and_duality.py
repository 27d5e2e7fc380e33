"""The direct map census, duality, and the two recursive decompositions.

Each connected rooted map on a fixed dart set is generated once, as its
canonical rotation system, and filtered down to the non-separable planar
ones; duality swaps the two degree statistics; deleting or contracting the
root edge splits a map into bricks that rebuild it.
"""

from tamarimaps import (
    closed_form,
    double_edge_map,
    compose_series,
    enumerate_nonseparable,
    parallel_components,
    series_components,
)

for m in (2, 3, 4):
    census = enumerate_nonseparable(m)
    print(
        "%d edges: %d non-separable rooted planar maps (closed form %d)"
        % (m, len(census), closed_form(m - 2))
    )
print()

maps4 = enumerate_nonseparable(4)
M = maps4[3]
print("a 4-edge map:")
for line in M.to_text().strip().splitlines():
    print("   ", line)
print("stats              :", tuple(M.stats()))
D = M.dual()
print("dual stats         :", tuple(D.stats()))
print("dual of dual == map:", D.dual() == M)
print()

bricks = series_components(M)
print("series bricks (component edge count, exposed darts):")
print("   ", [(K.edge_count, j) for K, j in bricks])
print("recomposition is the map again:", compose_series(bricks).is_isomorphic_to(M))

pbricks = parallel_components(M)
print("parallel bricks (component edge count, root-side darts):")
print("   ", [(K.edge_count, j) for K, j in pbricks])
print()

print("DOT rendering of the double edge:")
print(double_edge_map().to_dot())

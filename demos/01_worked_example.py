"""Walk through the 9-node worked example.

Builds the small complex used throughout the docs (a 4-clique, three more
triangles, one pendant node), then shows the per-level counts, a few
adjacency facts, shortest-path distances, and the spectral centralities.
"""

import numpy as np

import simplicent as sc

c = sc.example_complex(3)
g = c.graph

print("clique complex of the 9-node example")
print(f"  simplices per level: {c.counts()}")
print(f"  triangles: {c.simplex_labels(2)}")
print(f"  tetrahedron: {c.simplex_labels(3)[0]}")

idx = g.label_index()


def edge_id(a, b):
    return c.simplex_id(1, sorted((idx[a], idx[b])))


print("\nadjacency between edges (level 1)")
low = sc.lower_adjacency(c, 1).mat
up = sc.upper_adjacency(c, 1).mat
print(f"  {{6,7}} ~ {{6,9}} share node 6:        lower={low[edge_id('6','7'), edge_id('6','9')]}")
print(f"  {{5,6}} ~ {{4,6}} sit in {{4,5,6}}:      upper={up[edge_id('5','6'), edge_id('4','6')]}")
print(f"  {{1,2}} has combined degree {sc.simplex_degrees(c, 1)[edge_id('1','2')]} "
      "(all its lower neighbours share a triangle with it)")
print(f"  interactions per level: "
      f"{[sc.interaction_count(sc.combined_adjacency(c, k)) for k in range(3)]}")

print("\nshortest paths on the underlying networks")
d2 = sc.shortest_distances(c, 2)
t134 = c.simplex_id(2, sorted(idx[ch] for ch in "134"))
t234 = c.simplex_id(2, sorted(idx[ch] for ch in "234"))
print(f"  d({{1,3,4}}, {{2,3,4}}) = {d2[t134, t234]:.0f}   "
      "(the direct hop is blocked: both sit in the tetrahedron)")
labeling = sc.connected_components(c, 1)
print(f"  level 1 components: {labeling.n_components} (sizes {sorted(labeling.sizes)})")
print(f"  harmonic closeness of {{2,3,4}}: {sc.harmonic_closeness(c, 2).scores[t234]:.1f}")

print("\nspectral centralities at the edge level")
sg = sc.subgraph_centrality(c, 1)
e14 = edge_id("1", "4")
e69 = edge_id("6", "9")
print(f"  subgraph centrality of {{1,4}}: {sg.scores[e14]:.3f}")
print(f"  communicability({{1,4}}, {{6,9}}): {sc.communicability(c, 1, e14, e69):.4f}")
top = np.argsort(-sg.scores)[:3]
edge_labels = c.simplex_labels(1)
print("  top-3 edges by subgraph centrality: "
      + ", ".join(f"{{{edge_labels[i]}}}={sg.scores[i]:.2f}" for i in top))

"""The synthetic families and the bounds they attain.

The star-like family S (l simplices sharing one face) maximizes closeness,
subgraph centrality and minimizes average path length; the path family P
attains the (l+1)/3 upper bound on average path length and the 2/l lower
bound on end-simplex closeness; a branched family t with single arms puts
all shortest paths through its center.
"""

import numpy as np

import simplicent as sc

k = 2
print(f"level k={k}\n")

print("S family: l triangles sharing an edge (complete underlying network)")
for l in (3, 10, 25):
    c = sc.generate_S(l, k)
    summary = sc.level_summary(c, k)
    cl = sc.closeness(c, k).scores
    print(f"  l={l:3d}: closeness all {cl[0]:.0f}, betweenness all "
          f"{sc.betweenness(c, k).scores.max():.0f}, "
          f"avg path length {summary.avg_path_lengths[0]:.0f}, diameter {summary.diameter:.0f}")

print("\nP family: l triangles in a chain (path underlying network)")
for l in (3, 10, 25):
    c = sc.generate_P(l, k)
    end = c.simplex_id(k, tuple(range(k + 1)))
    print(f"  l={l:3d}: avg path length {sc.level_summary(c, k).avg_path_lengths[0]:.4f} "
          f"(bound (l+1)/3 = {(l + 1) / 3:.4f}), "
          f"end closeness {sc.closeness(c, k).scores[end]:.4f} (= 2/l = {2 / l:.4f})")

print("\nt family with single arms: every shortest path crosses the center")
c = sc.generate_T(k, [1, 1, 1])
center = c.simplex_id(k, tuple(range(k + 1)))
print(f"  t^2(1,1,1): normalized betweenness of the center = "
      f"{sc.betweenness(c, k).scores[center]:.0f}")

c = sc.generate_T(2, [1, 2, 4])
cl = sc.closeness(c, 2).scores
print(f"  t^2(1,2,4): peripheral closeness ranges "
      f"{cl.min():.4f} (= 7/13) .. {sorted(set(np.round(cl, 4)))[-2]:.4f}, center 1.0")

print("\nsubgraph-centrality extremality at fixed simplex count")


def random_chain_complex(l, k, rng):
    """Glue l k-simplices together one by one along random shared faces."""
    import itertools

    simplices = [list(range(k + 1))]
    edges = set(itertools.combinations(range(k + 1), 2))
    nxt = k + 1
    for _ in range(l - 1):
        host = simplices[rng.integers(len(simplices))]
        drop = int(rng.integers(len(host)))
        face = [v for i, v in enumerate(host) if i != drop]
        edges.update((f, nxt) for f in face)
        simplices.append(face + [nxt])
        nxt += 1
    graph = sc.Graph([str(i) for i in range(nxt)], edges)
    return sc.build_clique_complex(graph, k + 1)


l = 12
s_max = sc.subgraph_centrality(sc.generate_S(l, k), k).scores.max()
p_min = sc.subgraph_centrality(sc.generate_P(l, k), k).scores.min()
rng = np.random.default_rng(0)
samples = [sc.subgraph_centrality(random_chain_complex(l, k, rng), k).scores for _ in range(20)]
print(f"  S_12^2 value {s_max:.2f} >= max over 20 random complexes "
      f"{max(s.max() for s in samples):.2f}")
print(f"  P_12^2 end value {p_min:.4f} <= min over the same samples "
      f"{min(s.min() for s in samples):.4f}")

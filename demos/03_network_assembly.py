"""Assembling and updating a cooperative network's information matrix.

Builds the classic four-anchor, two-agent scenario in which neither agent
can trilaterate alone (each sees only two anchors) but cooperation
localizes both. Then exercises the incremental operations: an agent joins,
an agent leaves, and a huge position prior turns an agent into an
effective anchor.
"""

import numpy as np

from locbounds import (
    RangingLink,
    Topology,
    agent_efim,
    anchor_equivalence_check,
    build_efim,
    join,
    leave,
    speb,
)
from locbounds.network import Node


def show(net, label):
    print(f"{label}:")
    for agent_id in net.agent_ids:
        value = speb(agent_efim(net, agent_id))
        print(f"  SPEB({agent_id}) = {value:.4f} m^2")


nodes = (
    Node("u1", "agent", np.array([-2.0, 0.0])),
    Node("u2", "agent", np.array([2.0, 0.0])),
    Node("A", "anchor", np.array([-6.0, 3.0])),
    Node("B", "anchor", np.array([-6.0, -3.0])),
    Node("C", "anchor", np.array([6.0, 3.0])),
    Node("D", "anchor", np.array([6.0, -3.0])),
)
links = (
    # u1 hears only the west anchors, u2 only the east ones
    RangingLink("u1", "A", 0.5),
    RangingLink("u1", "B", 0.5),
    RangingLink("u2", "C", 0.5),
    RangingLink("u2", "D", 0.5),
    # cooperation in both directions
    RangingLink("u1", "u2", 0.8),
    RangingLink("u2", "u1", 0.8),
)
topo = Topology(nodes, links)
net = build_efim(topo)
print("two agents, two anchors each, plus cooperation")
show(net, "with cooperation")

solo = build_efim(Topology(nodes, links[:4]))
print("\nwithout the cooperative links the anchor geometry is rank starved:")
for agent_id in solo.agent_ids:
    block = solo.anchor_block(agent_id)
    eigs = np.linalg.eigvalsh(block.as_array())
    print(f"  {agent_id}: anchor-information eigenvalues {eigs.round(5)} -> unlocalizable")

# a third agent joins with links to both, then leaves again
rover = Node("u3", "agent", np.array([0.0, 4.0]))
grown = join(net, rover, [RangingLink("u3", "u1", 0.6), RangingLink("u3", "u2", 0.6)])
show(grown, "\nafter u3 joins (even without anchors of its own)")
back = leave(grown, "u3")
print(f"\nafter u3 leaves, the matrix matches the original exactly: "
      f"{np.array_equal(back.total.array, net.total.array)}")

print("\nanchors are agents with infinite position priors:")
for t2 in (1e3, 1e6, 1e9, 1e12):
    dev = anchor_equivalence_check(topo, "u2", t2)
    print(f"  prior information t^2 = {t2:.0e}  ->  relative deviation {dev:.3e}")

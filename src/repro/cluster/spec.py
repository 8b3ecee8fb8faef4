"""Fleet topology: heterogeneous multi-GPU nodes composed into a cluster.

A :class:`NodeSpec` names one machine of an existing single-server preset
(``"a6000"`` or ``"2080ti"``, paper Table I) with its own GPU inventory; a
:class:`ClusterSpec` is an ordered collection of such nodes.  The cluster
layer never re-models hardware — when a job lands on a node, the simulator
materialises the node as a plain :class:`~repro.hardware.server.ServerSpec`
sized to the job's gang, so every per-node timing comes from the same cost
models the single-server reproduction already validates.

Documented in ``docs/API.md`` (cluster layer) and ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.core.config import VALID_SERVERS
from repro.errors import ConfigurationError
from repro.fold import left_sum
from repro.hardware.server import MAX_GPUS, ServerSpec, get_server


@dataclass(frozen=True)
class NodeSpec:
    """One machine of the fleet: a named instance of a server preset.

    Example:
        >>> from repro.cluster.spec import NodeSpec
        >>> node = NodeSpec(name="a6000-0", server="a6000", num_gpus=4)
        >>> node.build_server(num_gpus=2).num_devices
        2
    """

    name: str
    server: str = "a6000"
    num_gpus: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node name must be non-empty")
        if self.server not in VALID_SERVERS:
            raise ConfigurationError(
                f"node {self.name!r} server must be one of {VALID_SERVERS}, "
                f"got {self.server!r}"
            )
        if self.num_gpus < 1:
            raise ConfigurationError(f"node {self.name!r} must have >= 1 GPU")
        if self.num_gpus > MAX_GPUS:
            raise ConfigurationError(
                f"node {self.name!r} must have <= {MAX_GPUS} GPUs (MAX_GPUS), "
                f"got {self.num_gpus}"
            )

    def build_server(self, num_gpus: int | None = None) -> ServerSpec:
        """Materialise this node (or a ``num_gpus``-sized slice of it)."""
        gpus = self.num_gpus if num_gpus is None else num_gpus
        if gpus < 1 or gpus > self.num_gpus:
            raise ConfigurationError(
                f"cannot build a {gpus}-GPU slice of node {self.name!r} "
                f"({self.num_gpus} GPUs)"
            )
        return get_server(self.server, gpus)

    def describe(self) -> str:
        return f"{self.name}: {self.num_gpus}x {self.server}"

    def to_dict(self) -> dict:
        return {"name": self.name, "server": self.server, "num_gpus": self.num_gpus}

    @classmethod
    def from_dict(cls, payload: dict) -> "NodeSpec":
        return cls(
            name=payload["name"],
            server=payload["server"],
            num_gpus=int(payload["num_gpus"]),
        )


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered fleet of nodes jobs are gang-scheduled onto.

    Example:
        >>> from repro.cluster.spec import cluster_from_shorthand
        >>> fleet = cluster_from_shorthand("a6000:4,2080ti:2")
        >>> (fleet.num_nodes, fleet.total_gpus, fleet.max_gpus_per_node)
        (2, 6, 4)
    """

    name: str
    nodes: Tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError(f"cluster {self.name!r} has no nodes")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"cluster {self.name!r} has duplicate node names")

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_gpus(self) -> int:
        return left_sum(node.num_gpus for node in self.nodes)

    @property
    def max_gpus_per_node(self) -> int:
        return max(node.num_gpus for node in self.nodes)

    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(
            f"unknown node {name!r}; cluster nodes: {[n.name for n in self.nodes]}"
        )

    def node_gpus(self) -> Dict[str, int]:
        """GPU inventory per node, in cluster order."""
        return {node.name: node.num_gpus for node in self.nodes}

    def __iter__(self) -> Iterator[NodeSpec]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        lines = [f"{self.name}: {self.num_nodes} nodes, {self.total_gpus} GPUs"]
        lines.extend("  " + node.describe() for node in self.nodes)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"name": self.name, "nodes": [node.to_dict() for node in self.nodes]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterSpec":
        return cls(
            name=payload["name"],
            nodes=tuple(NodeSpec.from_dict(node) for node in payload["nodes"]),
        )


# ---------------------------------------------------------------------- #
# Presets and shorthand
# ---------------------------------------------------------------------- #
def default_cluster(
    num_a6000: int = 2, num_2080ti: int = 2, gpus_per_node: int = 4
) -> ClusterSpec:
    """A small heterogeneous fleet mixing both of the paper's server types.

    Example:
        >>> from repro.cluster.spec import default_cluster
        >>> default_cluster().node_gpus()
        {'a6000-0': 4, 'a6000-1': 4, '2080ti-0': 4, '2080ti-1': 4}
    """
    if num_a6000 + num_2080ti < 1:
        raise ConfigurationError("cluster needs at least one node")
    nodes = []
    for index in range(num_a6000):
        nodes.append(NodeSpec(name=f"a6000-{index}", server="a6000", num_gpus=gpus_per_node))
    for index in range(num_2080ti):
        nodes.append(
            NodeSpec(name=f"2080ti-{index}", server="2080ti", num_gpus=gpus_per_node)
        )
    return ClusterSpec(name=f"{num_a6000 + num_2080ti}-node fleet", nodes=tuple(nodes))


def cluster_from_shorthand(spec: str, name: str = "cluster") -> ClusterSpec:
    """Parse ``"a6000:4,a6000:4,2080ti:4"`` into a :class:`ClusterSpec`.

    Each comma-separated entry is ``<preset>[:<num_gpus>]`` (GPU count
    defaults to 4).  Node names are generated as ``<preset>-<ordinal>``.

    Example:
        >>> from repro.cluster.spec import cluster_from_shorthand
        >>> [node.name for node in cluster_from_shorthand("a6000:4,a6000:2")]
        ['a6000-0', 'a6000-1']
    """
    entries = [entry.strip() for entry in spec.split(",") if entry.strip()]
    if not entries:
        raise ConfigurationError(f"empty cluster shorthand {spec!r}")
    counts: Dict[str, int] = {}
    nodes = []
    for entry in entries:
        preset, _, gpus_text = entry.partition(":")
        try:
            gpus = int(gpus_text) if gpus_text else 4
        except ValueError:
            raise ConfigurationError(
                f"bad GPU count in cluster shorthand entry {entry!r}"
            ) from None
        ordinal = counts.get(preset, 0)
        counts[preset] = ordinal + 1
        nodes.append(NodeSpec(name=f"{preset}-{ordinal}", server=preset, num_gpus=gpus))
    return ClusterSpec(name=name, nodes=tuple(nodes))

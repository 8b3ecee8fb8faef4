"""Tests for cluster topology specs (nodes, fleets, shorthand parsing)."""

import pytest

from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    cluster_from_shorthand,
    default_cluster,
)
from repro.errors import ConfigurationError
from repro.hardware.server import MAX_GPUS


class TestNodeSpec:
    def test_builds_server_preset(self):
        node = NodeSpec(name="n0", server="a6000", num_gpus=4)
        server = node.build_server()
        assert server.num_devices == 4
        sliced = node.build_server(2)
        assert sliced.num_devices == 2

    def test_slice_cannot_exceed_inventory(self):
        node = NodeSpec(name="n0", server="a6000", num_gpus=2)
        with pytest.raises(ConfigurationError):
            node.build_server(3)
        with pytest.raises(ConfigurationError):
            node.build_server(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(name="", server="a6000")
        with pytest.raises(ConfigurationError):
            NodeSpec(name="n0", server="h100")
        with pytest.raises(ConfigurationError):
            NodeSpec(name="n0", num_gpus=0)
        with pytest.raises(ConfigurationError, match="MAX_GPUS"):
            NodeSpec(name="n0", num_gpus=MAX_GPUS + 1)

    def test_dict_roundtrip(self):
        node = NodeSpec(name="n0", server="2080ti", num_gpus=8)
        assert NodeSpec.from_dict(node.to_dict()) == node


class TestClusterSpec:
    def test_inventory_and_lookup(self):
        cluster = default_cluster()
        assert cluster.num_nodes == 4
        assert cluster.total_gpus == 16
        assert cluster.max_gpus_per_node == 4
        assert cluster.node("a6000-0").server == "a6000"
        assert list(cluster.node_gpus()) == [node.name for node in cluster.nodes]
        with pytest.raises(ConfigurationError):
            cluster.node("missing")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(name="empty", nodes=())
        node = NodeSpec(name="n0")
        with pytest.raises(ConfigurationError, match="duplicate"):
            ClusterSpec(name="dup", nodes=(node, node))

    def test_dict_roundtrip(self):
        cluster = default_cluster(num_a6000=1, num_2080ti=2, gpus_per_node=2)
        assert ClusterSpec.from_dict(cluster.to_dict()) == cluster

    def test_describe_mentions_every_node(self):
        cluster = default_cluster()
        text = cluster.describe()
        for node in cluster:
            assert node.name in text


class TestShorthand:
    def test_parse(self):
        cluster = cluster_from_shorthand("a6000:4, a6000:2, 2080ti:8")
        assert [node.name for node in cluster.nodes] == [
            "a6000-0",
            "a6000-1",
            "2080ti-0",
        ]
        assert [node.num_gpus for node in cluster.nodes] == [4, 2, 8]

    def test_default_gpu_count(self):
        cluster = cluster_from_shorthand("2080ti")
        assert cluster.nodes[0].num_gpus == 4

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            cluster_from_shorthand("")
        with pytest.raises(ConfigurationError):
            cluster_from_shorthand("a6000:lots")
        with pytest.raises(ConfigurationError):
            cluster_from_shorthand("h100:8")

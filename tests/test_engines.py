"""Engine roles, security groups, configuration capture."""

import pytest

from cloudrerun.caam import generate_pipeline
from cloudrerun.config_model import Engine, parse_abstract_request
from cloudrerun.engines import (
    CLIENT_PEER,
    DEFAULT_SSH_DAEMON_PORT,
    assign_roles,
    build_security_groups,
    capture_engine_config,
)
from cloudrerun.errors import MalformedValue
from cloudrerun.simcloud.workload import parse_flags

from helpers import application_text, personal_text, resources_text

from oracles import allows, reachable_pairs


class TestRoles:
    def test_head_role_per_engine(self):
        assert assign_roles(Engine.SPARK, 3)[0]["role"] == "master"
        assert assign_roles(Engine.DASK, 3)[0]["role"] == "scheduler"
        assert assign_roles(Engine.HOROVOD, 3)[0]["role"] == "primary_worker"

    def test_workers_follow_head(self):
        roles = assign_roles(Engine.SPARK, 4)
        assert [r["role"] for r in roles[1:]] == ["worker"] * 3
        assert [r["node_index"] for r in roles] == [0, 1, 2, 3]

    def test_no_engine_all_standalone(self):
        assert {r["role"] for r in assign_roles(Engine.NONE, 5)} == {"standalone"}

    def test_single_node_engine_cluster(self):
        assert [r["role"] for r in assign_roles(Engine.DASK, 1)] == ["scheduler"]

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            assign_roles(Engine.SPARK, 0)


class TestSecurityGroups:
    def test_engine_cluster_has_two_groups(self):
        groups = build_security_groups(Engine.SPARK)
        assert [g["group_id"] for g in groups] == ["sg-head", "sg-workers"]

    def test_intra_cluster_traffic_is_closed(self):
        """TCP/UDP may flow only between the cluster's own groups; the only
        other reachable peer is the client, over SSH, into the head."""
        for engine in (Engine.SPARK, Engine.DASK, Engine.HOROVOD):
            groups = build_security_groups(engine)
            cluster = {g["group_id"] for g in groups}
            for protocol, group_id, peer in reachable_pairs(groups):
                if peer == CLIENT_PEER:
                    assert protocol == "tcp"
                    assert group_id == "sg-head"
                else:
                    assert peer in cluster

    def test_ssh_from_client_reaches_head_only(self):
        head, workers = build_security_groups(Engine.DASK)
        assert allows(head, "ingress", "tcp", CLIENT_PEER, 22)
        assert not allows(workers, "ingress", "tcp", CLIENT_PEER, 22)

    def test_cluster_groups_talk_tcp_and_udp_both_ways(self):
        head, workers = build_security_groups(Engine.SPARK)
        for group in (head, workers):
            for protocol in ("tcp", "udp"):
                for peer in ("sg-head", "sg-workers"):
                    assert allows(group, "ingress", protocol, peer, 7077)
                    assert allows(group, "egress", protocol, peer, 7077)

    def test_no_engine_single_group_client_ssh_only(self):
        (group,) = build_security_groups(Engine.NONE)
        assert allows(group, "ingress", "tcp", CLIENT_PEER, 22)
        assert not allows(group, "ingress", "tcp", CLIENT_PEER, 80)
        assert not allows(group, "ingress", "udp", CLIENT_PEER, 22)
        assert {r["peer"] for r in group["rules"]} == {CLIENT_PEER}

    def test_horovod_daemon_port_pinned(self):
        head, workers = build_security_groups(Engine.HOROVOD, ssh_daemon_port=2222)
        explicit = [
            r for r in workers["rules"] if r["port_range"] == [2222, 2222] and r["direction"] == "ingress"
        ]
        assert {r["peer"] for r in explicit} == {"sg-head", "sg-workers"}


class TestCaptureEngineConfig:
    def make(self, engine="horovod", command=None, bootstrap=None, nodes=3):
        command = command or "train --parallelism 4 --seed 9 --ssh-port 2222"
        return parse_abstract_request(
            resources_text(engine=engine, nodes=nodes),
            application_text(command=command, bootstrap=bootstrap),
            personal_text(),
        )

    def test_flags_are_captured(self):
        captured = capture_engine_config(self.make())
        assert captured["parameters"] == {
            "parallelism": "4",
            "seed": "9",
            "ssh-port": "2222",
        }
        assert captured["engine"] == "horovod"
        assert captured["node_count"] == 3

    def test_roles_match_assignment(self):
        captured = capture_engine_config(self.make(engine="spark", command="run --x 1"))
        assert captured["roles"][0] == {"node_index": 0, "role": "master"}
        assert len(captured["roles"]) == 3

    def test_bootstrap_preserved(self):
        captured = capture_engine_config(
            self.make(bootstrap="apt update, pip install torch")
        )
        assert captured["bootstrap"] == ["apt update", "pip install torch"]

    def test_ssh_port_only_for_horovod(self):
        assert capture_engine_config(self.make())["ssh_daemon_port"] == 2222
        spark = capture_engine_config(self.make(engine="spark", command="run --x 1"))
        assert spark["ssh_daemon_port"] is None
        default = capture_engine_config(self.make(command="train --parallelism 4"))
        assert default["ssh_daemon_port"] == DEFAULT_SSH_DAEMON_PORT

    @pytest.mark.parametrize("port", ["abc", "0", "-5", "70000"])
    def test_horovod_rejects_a_port_outside_1_to_65535(self, port):
        with pytest.raises(MalformedValue, match="application.ini: command --ssh-port"):
            self.make(command=f"train --parallelism 4 --ssh-port {port}")

    def test_horovod_accepts_the_highest_port(self):
        req = self.make(command="train --parallelism 4 --ssh-port 65535")
        assert capture_engine_config(req)["ssh_daemon_port"] == 65535
        for group in generate_pipeline(req).body["security_groups"]:
            assert [65535, 65535] in [list(r["port_range"]) for r in group["rules"]]

    def test_a_valueless_flag_does_not_take_the_next_flag(self):
        assert parse_flags("horovodrun --dry-run --ssh-port 70000") == {"ssh-port": "70000"}
        with pytest.raises(MalformedValue, match="--ssh-port '70000'"):
            self.make(command="horovodrun --dry-run --ssh-port 70000")

    def test_other_engines_only_record_the_port(self):
        req = self.make(engine="spark", command="run --x 1 --ssh-port abc")
        captured = capture_engine_config(req)
        assert captured["ssh_daemon_port"] is None
        assert captured["parameters"]["ssh-port"] == "abc"
        generate_pipeline(req)

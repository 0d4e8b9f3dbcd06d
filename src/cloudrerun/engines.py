"""Engine-specific cluster layout: node roles, security groups, captured
configuration artifacts.

Every supported engine follows the same pattern: node 0 is the head
(master, scheduler, or primary worker depending on the engine) and the
rest are workers.  Security groups isolate the cluster: intra-cluster
TCP/UDP is allowed only between the head group and the worker group, and
SSH from the client machine reaches the head node only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config_model import DEFAULT_SSH_DAEMON_PORT, AbstractRequest, Engine

HEAD_ROLE = {
    Engine.NONE: "standalone",
    Engine.SPARK: "master",
    Engine.DASK: "scheduler",
    Engine.HOROVOD: "primary_worker",
}

CLIENT_PEER = "client"


@dataclass(frozen=True)
class SecurityRule:
    direction: str  # "ingress" or "egress"
    protocol: str  # "tcp" or "udp"
    peer: str  # another group id, or "client"
    port_range: tuple[int, int] = (0, 65535)


@dataclass(frozen=True)
class SecurityGroup:
    group_id: str
    rules: tuple[SecurityRule, ...]

    def allows(self, direction: str, protocol: str, peer: str, port: int) -> bool:
        return any(
            r.direction == direction
            and r.protocol == protocol
            and r.peer == peer
            and r.port_range[0] <= port <= r.port_range[1]
            for r in self.rules
        )


def assign_roles(engine: Engine, node_count: int) -> list[dict]:
    """Each node's ``{"node_index", "role"}``, as ``engine.json`` holds it:
    node 0 leads and everyone else works.  With no engine all nodes are
    standalone peers."""
    if node_count < 1:
        raise ValueError(f"node count must be >= 1, got {node_count}")
    rest = "standalone" if engine is Engine.NONE else "worker"
    return [{"node_index": i, "role": rest if i else HEAD_ROLE[engine]} for i in range(node_count)]


def _intra_cluster_rules(peers: tuple[str, ...]) -> list[SecurityRule]:
    rules = []
    for direction in ("ingress", "egress"):
        for protocol in ("tcp", "udp"):
            for peer in peers:
                rules.append(SecurityRule(direction, protocol, peer))
    return rules


def build_security_groups(
    engine: Engine, ssh_daemon_port: Optional[int] = DEFAULT_SSH_DAEMON_PORT
) -> tuple[SecurityGroup, ...]:
    """Security groups for a cluster running ``engine``.

    Engine selected: a head group and a worker group, open to each other
    over TCP and UDP in both directions and to nothing else; client SSH
    (tcp/22) terminates at the head group.  Horovod additionally opens its
    SSH daemon port ``ssh_daemon_port`` inside the cluster, which is
    already covered by the all-port intra-cluster rules but is pinned
    explicitly so the contract survives a narrowing of those ranges.  The
    other engines ignore the port, so it may be None for them.

    No engine: one group, client SSH only.
    """
    if engine is Engine.NONE:
        return (
            SecurityGroup(
                "sg-standalone",
                (
                    SecurityRule("ingress", "tcp", CLIENT_PEER, (22, 22)),
                    SecurityRule("egress", "tcp", CLIENT_PEER, (22, 22)),
                ),
            ),
        )

    head_id, worker_id = "sg-head", "sg-workers"
    cluster = (head_id, worker_id)
    head_rules = _intra_cluster_rules(cluster)
    head_rules.append(SecurityRule("ingress", "tcp", CLIENT_PEER, (22, 22)))
    head_rules.append(SecurityRule("egress", "tcp", CLIENT_PEER, (22, 22)))
    worker_rules = _intra_cluster_rules(cluster)
    if engine is Engine.HOROVOD:
        port = (ssh_daemon_port, ssh_daemon_port)
        for rules in (head_rules, worker_rules):
            rules.append(SecurityRule("ingress", "tcp", head_id, port))
            rules.append(SecurityRule("ingress", "tcp", worker_id, port))
    return (
        SecurityGroup(head_id, tuple(head_rules)),
        SecurityGroup(worker_id, tuple(worker_rules)),
    )


def capture_engine_config(req: AbstractRequest) -> dict:
    """Freeze everything the engine run depended on into an archivable
    artifact: engine, node roles, command flags, bootstrap steps."""
    engine = req.resources.bigdata_engine
    node_count = req.resources.provider_block(req.personal.cloud_provider).instance_number
    return {
        "engine": engine.value,
        "node_count": node_count,
        "roles": assign_roles(engine, node_count),
        "command": req.application.command,
        "parameters": dict(req.application.flags),
        "bootstrap": list(req.application.bootstrap),
        "ssh_daemon_port": req.ssh_daemon_port,
    }


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

from .config_model import AbstractRequest, Engine
from .errors import MalformedValue
from .simcloud.workload import parse_flags

__all__ = [
    "NodeRole",
    "SecurityRule",
    "SecurityGroup",
    "assign_roles",
    "build_security_groups",
    "capture_engine_config",
    "HEAD_ROLE",
    "DEFAULT_SSH_DAEMON_PORT",
]

HEAD_ROLE = {
    Engine.NONE: "standalone",
    Engine.SPARK: "master",
    Engine.DASK: "scheduler",
    Engine.HOROVOD: "primary_worker",
}

# Horovod drives workers over SSH; its in-cluster daemon port is
# configurable through --ssh-port on the command line.
DEFAULT_SSH_DAEMON_PORT = 12345

CLIENT_PEER = "client"


@dataclass(frozen=True)
class NodeRole:
    node_index: int
    role: str


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


def assign_roles(engine: Engine, node_count: int) -> tuple[NodeRole, ...]:
    """Node 0 leads; everyone else works.  With no engine all nodes are
    standalone peers."""
    if node_count < 1:
        raise ValueError(f"node count must be >= 1, got {node_count}")
    if engine is Engine.NONE:
        return tuple(NodeRole(i, "standalone") for i in range(node_count))
    head = HEAD_ROLE[engine]
    return tuple(
        NodeRole(i, head if i == 0 else "worker") for i in range(node_count)
    )


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
    flags = parse_flags(req.application.command)
    return {
        "engine": engine.value,
        "node_count": node_count,
        "roles": [dict(vars(r)) for r in assign_roles(engine, node_count)],
        "command": req.application.command,
        "parameters": dict(sorted(flags.items())),
        "bootstrap": list(req.application.bootstrap),
        "ssh_daemon_port": _ssh_port(flags) if engine is Engine.HOROVOD else None,
    }


def _ssh_port(flags: dict) -> int:
    """Horovod's --ssh-port: a TCP port number in decimal digits, 1..65535."""
    text = flags.get("ssh-port", str(DEFAULT_SSH_DAEMON_PORT))
    port = int(text) if text.isdecimal() else 0
    if not 1 <= port <= 65535:
        raise MalformedValue(
            f"application.ini: command --ssh-port {text!r} is not a port number in 1..65535"
        )
    return port

"""Engine-specific cluster layout: node roles, security groups, captured
configuration artifacts.

This module is where engine knowledge lives; the adapters in ``caam`` hold
the provider knowledge and take the engine parts from here verbatim.  Each
part is built as the JSON it becomes: the roles as ``engine.json`` holds
them and the security groups as the pipeline document holds them, so no
adapter converts them.

Every supported engine follows the same pattern: node 0 is the head
(master, scheduler, or primary worker depending on the engine) and the
rest are workers.  Security groups isolate the cluster: intra-cluster
TCP/UDP is allowed only between the head group and the worker group, and
SSH from the client machine reaches the head node only.
"""

from __future__ import annotations

from typing import Optional

from .config_model import DEFAULT_SSH_DAEMON_PORT, AbstractRequest, Engine

HEAD_ROLE = {
    Engine.NONE: "standalone",
    Engine.SPARK: "master",
    Engine.DASK: "scheduler",
    Engine.HOROVOD: "primary_worker",
}

CLIENT_PEER = "client"


def assign_roles(engine: Engine, node_count: int) -> list[dict]:
    """Each node's ``{"node_index", "role"}``, as ``engine.json`` holds it:
    node 0 leads and everyone else works.  With no engine all nodes are
    standalone peers."""
    if node_count < 1:
        raise ValueError(f"node count must be >= 1, got {node_count}")
    rest = "standalone" if engine is Engine.NONE else "worker"
    return [{"node_index": i, "role": rest if i else HEAD_ROLE[engine]} for i in range(node_count)]


def _rule(direction: str, protocol: str, peer: str, ports: tuple[int, int] = (0, 65535)) -> dict:
    """One rule as the document holds it: ``direction`` is ingress or
    egress, ``protocol`` tcp or udp, ``peer`` a group id or ``client``."""
    return {"direction": direction, "protocol": protocol, "peer": peer, "port_range": list(ports)}


def build_security_groups(
    engine: Engine, ssh_daemon_port: Optional[int] = DEFAULT_SSH_DAEMON_PORT
) -> list[dict]:
    """Security groups for a cluster running ``engine``, as the document
    holds them: ``[{"group_id", "rules": [{"direction", "protocol",
    "peer", "port_range": [lo, hi]}]}]``.

    Engine selected: a head group and a worker group, open to each other
    over TCP and UDP in both directions and to nothing else; client SSH
    (tcp/22) terminates at the head group.  Horovod additionally opens its
    SSH daemon port ``ssh_daemon_port`` inside the cluster, which is
    already covered by the all-port intra-cluster rules but is pinned
    explicitly so the contract survives a narrowing of those ranges.  The
    other engines ignore the port, so it may be None for them.

    No engine: one group, client SSH only.
    """
    client_ssh = [_rule(direction, "tcp", CLIENT_PEER, (22, 22)) for direction in ("ingress", "egress")]
    if engine is Engine.NONE:
        return [{"group_id": "sg-standalone", "rules": client_ssh}]

    cluster = ("sg-head", "sg-workers")
    groups = []
    for group_id, from_client in zip(cluster, (client_ssh, [])):
        rules = [
            _rule(direction, protocol, peer)
            for direction in ("ingress", "egress")
            for protocol in ("tcp", "udp")
            for peer in cluster
        ] + from_client
        if engine is Engine.HOROVOD:
            rules += [_rule("ingress", "tcp", peer, (ssh_daemon_port, ssh_daemon_port)) for peer in cluster]
        groups.append({"group_id": group_id, "rules": rules})
    return groups


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


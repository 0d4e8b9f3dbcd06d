"""Seeded inputs for the benchmark workloads.

Everything here is plain text and plain data: INI texts, reproduction
overrides, query filters and CLI argument lists.  Nothing imports
``cloudrerun``, so the program under test receives only generated inputs.
The same seed always yields the same inputs.

Properties that change how much work an op does (provider, engine, node
count, execution mode, history on/off, failures, op kind) are dealt from
shuffled decks rather than drawn independently: every block of draws holds
each value in its stated share, so two seeds differ in order and detail but
not in the workload's composition.  That keeps run-to-run spread low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

PROVIDERS = ("aws", "azure")
# azure cannot host spark, so it is never generated there.
ENGINES = {
    "aws": ("none", "spark", "horovod", "dask"),
    "azure": ("none", "horovod", "dask"),
}
# Only types with a cross-cloud equivalent, so every run can be ported.
INSTANCE_TYPES = {
    "aws": ("c5d.large", "c5d.xlarge", "c5d.4xlarge", "p3.2xlarge", "p3.8xlarge"),
    "azure": ("F2s_v2", "F4s_v2", "F16s_v2", "NC6s_v3", "NC24s_v3"),
}
REGIONS = {"aws": ("us-west-2", "us-east-1"), "azure": ("westus2", "eastus")}
# A small shared pool, so content-addressed inputs are often already stored.
DATASETS = tuple(f"s3://datasets/shared-{i}" for i in range(6))
IMAGES = (
    "registry.example/analytics:1.0",
    "registry.example/analytics:1.1",
    "registry.example/ml:2.3",
)
BOOTSTRAP_STEPS = (
    "pip install numpy",
    "apt-get install -y libhdf5-dev",
    "conda env update -f env.yml",
    "mkdir -p /scratch/work",
)
KEY_NAMES = ("analytics-key", "team-key", "ci-key", "night-key")
# (store, table) pairs named in [reproduce]; most runs use the defaults.
HISTORY_TARGETS = (
    ("execution-history", "execution-records"),
    ("archive-b", "records-b"),
)
EXEC_MODES = ("serverless", "sdk")
REPRODUCTION_KINDS = ("identical", "new-personal", "modified", "cross-cloud")

# Decks: each value appears in its deck as often as its share requires.
# Execution mode: 70% serverless, 30% sdk polling every 5 s or 10 s.
EXEC_DECK = (("serverless", 0),) * 14 + (("sdk", 5),) * 3 + (("sdk", 10),) * 3
HISTORY_DECK = (True,) * 4 + (False,)  # 80% record history
FAILURE_DECK = (True,) + (False,) * 19  # 5% exit with code 1
TARGET_DECK = (HISTORY_TARGETS[0],) * 4 + (HISTORY_TARGETS[1],)
STATUS_DECK = ("Completed",) * 4 + ("Failed",)
# Which record fields a query filters on.
FILTER_DECK = (
    ("status",), ("status",), ("engine",), ("status", "engine"), ("mode",),
    ("status", "mode"), ("provider", "status"), (),
)


@dataclass(frozen=True)
class RunSpec:
    """One request: the three INI texts plus how it is executed."""

    provider: str
    engine: str
    nodes: int
    instance_type: str
    region: str
    store: str
    table: str
    key_name: str
    mode: str
    poll_window: int
    history: bool
    fails: bool
    resources: str
    application: str
    personal: str

    @property
    def expected_state(self) -> str:
        return "Failed" if self.fails else "Completed"


@dataclass(frozen=True)
class ReproSpec:
    """One reproduction of an earlier run (``target`` is its op index)."""

    target: int
    kind: str
    provider: str
    engine: str
    store: str
    table: str
    personal: str
    resources: Optional[str]
    application: Optional[str]
    target_provider: Optional[str]
    mode: str
    poll_window: int
    history: bool


@dataclass(frozen=True)
class QuerySpec:
    provider: str
    store: str
    table: str
    filters: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class FetchSpec:
    target: int


def resources_text(provider: str, engine: str, nodes: int, instance_type: str,
                   region: str, store: str, table: str) -> str:
    if provider == "aws":
        block = (
            "[cloud.aws]\n"
            f"region = {region}\n"
            f"instance_number = {nodes}\n"
            f"instance_type = {instance_type}\n"
            "subnet_id = subnet-0a1b2c\n"
            "vpc_id = vpc-0a1b2c\n"
        )
    else:
        block = (
            "[cloud.azure]\n"
            f"region = {region}\n"
            f"instance_number = {nodes}\n"
            f"instance_type = {instance_type}\n"
            "resource_group_name = analytics-rg\n"
        )
    return (
        "# generated request\n"
        "[resources]\n"
        f"bigdata_engine = {engine}\n\n"
        f"{block}\n"
        "[reproduce]\n"
        f"reproduce_storage = {store}\n"
        f"reproduce_database = {table}\n"
    )


def _portable(run: RunSpec) -> bool:
    """A run can be ported to the other cloud unless that cloud lacks its engine."""
    other = "azure" if run.provider == "aws" else "aws"
    return run.engine in ENGINES[other]


class Inputs:
    """Seeded source of requests, reproductions, queries and op plans."""

    def __init__(self, seed: str) -> None:
        self.rng = random.Random(seed)
        self._decks: dict[object, list] = {}

    def deal(self, deck: tuple, key: object = None):
        """Next card of ``deck``; a fresh shuffle each time it runs out."""
        key = deck if key is None else key
        cards = self._decks.get(key)
        if not cards:
            cards = self._decks[key] = list(deck)
            self.rng.shuffle(cards)
        return cards.pop()

    def application_text(self, engine: str, fails: bool) -> str:
        rng = self.rng
        command = (
            "analyze"
            f" --serial-seconds {rng.randint(5, 20)}"
            f" --parallel-seconds {rng.randint(50, 200)}"
            f" --comm-seconds {rng.randint(0, 3)}"
            f" --parallelism {rng.randint(1, 4)}"
            f" --seed {rng.randrange(10**9)}"
        )
        if engine == "horovod" and rng.random() < 0.5:
            command += " --ssh-port 2222"
        if fails:
            command += " --exit-code 1"
        datasets = rng.sample(DATASETS, self.deal((1, 2, 3), "datasets"))
        lines = [
            "[application]",
            f"docker_image = {rng.choice(IMAGES)}",
            f"data_uri = {', '.join(datasets)}",
            f"command = {command}",
        ]
        steps = rng.sample(BOOTSTRAP_STEPS, self.deal((0, 1, 2, 3), "bootstrap"))
        if steps:
            lines.append(f"bootstrap = {', '.join(steps)}")
        return "\n".join(lines) + "\n"

    def personal_text(self, provider: str, key_name: str) -> str:
        rng = self.rng
        lines = [
            "[personal]",
            f"cloud_provider = {provider}",
            f"key_name = {key_name}",
            f"key_path = ~/.ssh/{key_name}.pem",
            f"python_runtime = {rng.choice(('3.8', '3.9'))}",
        ]
        if rng.random() < 0.5:
            lines.append(
                f"cloud_credentials = access_key:AK{rng.randrange(16**8):08x}, "
                f"secret_key:{rng.randrange(16**12):012x}"
            )
        return "\n".join(lines) + "\n"

    def run(self) -> RunSpec:
        provider = self.deal(PROVIDERS)
        engine = self.deal(ENGINES[provider])
        nodes = self.deal(tuple(range(1, 9)), "nodes")
        instance_type = self.deal(INSTANCE_TYPES[provider])
        region = self.rng.choice(REGIONS[provider])
        store, table = self.deal(TARGET_DECK)
        key_name = self.rng.choice(KEY_NAMES)
        mode, poll_window = self.deal(EXEC_DECK)
        history = self.deal(HISTORY_DECK)
        fails = self.deal(FAILURE_DECK)
        return RunSpec(
            provider=provider,
            engine=engine,
            nodes=nodes,
            instance_type=instance_type,
            region=region,
            store=store,
            table=table,
            key_name=key_name,
            mode=mode,
            poll_window=poll_window,
            history=history,
            fails=fails,
            resources=resources_text(provider, engine, nodes, instance_type, region, store, table),
            application=self.application_text(engine, fails),
            personal=self.personal_text(provider, key_name),
        )

    def repro(self, runs: dict[int, RunSpec], sources: list[int]) -> ReproSpec:
        """Reproduce one of ``sources`` (op indices of completed, archived runs)."""
        rng = self.rng
        kind = self.deal(REPRODUCTION_KINDS)
        candidates = sources
        if kind == "cross-cloud":
            candidates = [i for i in sources if _portable(runs[i])]
            if not candidates:
                kind, candidates = "identical", sources
        target = rng.choice(candidates)
        run = runs[target]
        personal = run.personal
        resources = application = target_provider = None
        provider = run.provider
        if kind == "new-personal":
            key_name = rng.choice([k for k in KEY_NAMES if k != run.key_name])
            personal = self.personal_text(run.provider, key_name)
        elif kind == "modified":
            application = self.application_text(run.engine, fails=False)
            if rng.random() < 0.5:
                resources = resources_text(
                    run.provider, run.engine, self.deal(tuple(range(1, 9)), "nodes"),
                    run.instance_type, run.region, run.store, run.table,
                )
        elif kind == "cross-cloud":
            provider = target_provider = "azure" if run.provider == "aws" else "aws"
        mode, poll_window = self.deal(EXEC_DECK, "repro-exec")
        return ReproSpec(
            target=target,
            kind=kind,
            provider=provider,
            engine=run.engine,
            store=run.store,
            table=run.table,
            personal=personal,
            resources=resources,
            application=application,
            target_provider=target_provider,
            mode=mode,
            poll_window=poll_window,
            history=self.deal(HISTORY_DECK, "repro-history"),
        )

    def query(self, with_status: bool) -> QuerySpec:
        provider = self.deal(PROVIDERS, "query-provider")
        store, table = self.deal(TARGET_DECK, "query-target")
        fields = set(self.deal(FILTER_DECK))
        if with_status:
            fields.add("status")
        values = {
            "status": lambda: self.deal(STATUS_DECK),
            "engine": lambda: self.rng.choice(ENGINES[provider]),
            "mode": lambda: self.rng.choice(EXEC_MODES),
            "provider": lambda: provider,
        }
        return QuerySpec(provider, store, table,
                         tuple(sorted((f, values[f]()) for f in fields)))

    def plan(self, n_ops: int, mix: dict[str, float], warm_runs: int,
             first_index: int = 0, runs: Optional[dict[int, RunSpec]] = None,
             archived: Optional[list[int]] = None,
             status_queries: bool = False) -> list[tuple[str, object]]:
        """``n_ops`` ops as ``(kind, spec)``, each kind in its share of ``mix``.

        Reproductions and fetches name earlier ops by index.  The first
        ``warm_runs`` ops are runs, so later ops have something to refer to.
        ``runs`` and ``archived`` describe ops that precede this plan (such as
        runs seeded into a state directory), starting at index 0.
        ``status_queries`` makes every query filter on status, as
        ``cloudrerun history --status`` does.
        """
        runs = dict(runs or {})
        sources = list(archived or [])  # completed runs with an archive
        fetchable = list(archived or [])  # any completed op with an archive
        rest = n_ops - warm_runs
        kinds = [k for k, share in mix.items() for _ in range(round(share * rest))]
        kinds += ["run"] * (rest - len(kinds))
        self.rng.shuffle(kinds)
        plan: list[tuple[str, object]] = []
        for offset, kind in enumerate(["run"] * warm_runs + kinds[:rest]):
            index = first_index + offset
            if kind in ("reproduce", "fetch") and not sources:
                kind = "run"
            if kind == "run":
                spec = self.run()
                runs[index] = spec
                if spec.history and not spec.fails:
                    sources.append(index)
                    fetchable.append(index)
            elif kind == "reproduce":
                spec = self.repro(runs, sources)
                if spec.history:
                    fetchable.append(index)
            elif kind == "fetch":
                spec = FetchSpec(self.rng.choice(fetchable))
            elif kind == "query":
                spec = self.query(status_queries)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
            plan.append((kind, spec))
        return plan

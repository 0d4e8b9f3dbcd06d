"""The state file's parts are sliced and decoded only when a command reads them.

A command on a state directory with 200 earlier runs must slice no earlier
stored version, row or bill to make a run, and only its target's to fetch
or reproduce one; its save writes the loaded tail back byte for byte and
appends what the command added.  Decoding a row or bill and encoding it
again gives back its bytes, so a save writes the same file whether nothing
or everything was read, and a save that drops the tail's dead bytes writes
what an environment that never loaded writes.  A damaged row or bill is
reported, naming it, by the command that reads it.
"""

import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudrerun.caam import generate_pipeline
from cloudrerun.cli import EXIT_OK, EXIT_USAGE, main
from cloudrerun.errors import CloudRerunError
from cloudrerun.history import HistoryStore, parse_url
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import Orchestrator
from cloudrerun.simcloud import ledger as ledger_module
from cloudrerun.simcloud import provider as provider_module
from cloudrerun.simcloud.ledger import Bill, LedgerEntry, Tail, canonical, decode_bill, encode_bill
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud, decode_row

from helpers import application_text, make_request, personal_text, resolved_state, resources_text

RUNS = 200
TABLE = "execution-records"
GOLDEN = Path(__file__).parent / "golden" / "simcloud_state.live.v3"


def _saved_parts(path: Path) -> dict:
    """The bytes of every row, by (provider, table, id), and of every bill, by scope."""
    _, line, tail = path.read_bytes().split(b"\n", 2)
    state = json.loads(line)["state"]
    parts = {("bill", scope): tail[start:start + length] for scope, (start, length) in state["ledger"]["bills"]}
    for name, pstate in state["providers"].items():
        for table, rows in pstate["tables"].items():
            for key, (start, length) in rows:
                parts[(name, table, key)] = tail[start:start + length]
    return parts


def _named_references(state: dict):
    """(name, reference) of every stored version, row and bill an index holds:
    a version by (provider, store, key, version), a row by (provider, table,
    id), a bill by ("bill", scope)."""
    for name, pstate in state["providers"].items():
        for store, keys in pstate["stores"].items():
            for key, versions in keys.items():
                for version, ref in enumerate(versions):
                    yield (name, store, key, version), ref
        for table, rows in pstate["tables"].items():
            for key, ref in rows:
                yield (name, table, key), ref
    for scope, ref in state["ledger"]["bills"]:
        yield ("bill", scope), ref


def _names(data: bytes) -> dict:
    """The name of each reference a state file's index holds."""
    return {tuple(ref): name for name, ref in _named_references(json.loads(data.split(b"\n", 2)[1])["state"])}


def _tail(data: bytes) -> bytes:
    return data.split(b"\n", 2)[2]


def _live_and_dead(data: bytes) -> tuple[int, int]:
    """How many bytes of a state file's tail some reference names, and how many none does."""
    live = end = 0
    for start, length in sorted(_names(data)):
        live += max(0, start + length - max(start, end))
        end = max(end, start + length)
    return live, len(_tail(data)) - live


def logical_dump(env: SimCloud) -> dict:
    """Every stored version, row and bill's bytes by name, key-sorted."""
    return dict(sorted(_named_references(resolved_state(env))))


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A state file after ``RUNS`` runs with history on both clouds, and their URLs."""
    env = SimCloud()
    orchestrator = Orchestrator(env)
    urls = [
        orchestrator.run(generate_pipeline(make_request(provider=PROVIDERS[i % 2], nodes=1 + i % 3))).history_url
        for i in range(RUNS)
    ]
    path = tmp_path_factory.mktemp("history") / "simcloud.json"
    env.save_state(path)
    return path.read_bytes(), urls


@pytest.fixture
def decoded(monkeypatch):
    """Every row and bill decoded while the test runs, as (provider, table, id) and scope."""
    seen = {"rows": [], "bills": []}

    def row(provider, table, execution_id, raw):
        seen["rows"].append((provider, table, execution_id))
        return decode_row(provider, table, execution_id, raw)

    def bill(scope, raw):
        seen["bills"].append(scope)
        return decode_bill(scope, raw)

    monkeypatch.setattr(provider_module, "decode_row", row)
    monkeypatch.setattr(ledger_module, "decode_bill", bill)
    return seen


@pytest.fixture
def sliced(monkeypatch):
    """The name of every stored part sliced out of a loaded tail while the
    test runs, given the state file the tail was loaded from."""
    seen = []
    read = Tail.read

    def spy(self, part):
        if type(part) is list:
            seen.append(tuple(part))
        return read(self, part)

    monkeypatch.setattr(Tail, "read", spy)
    return lambda data: sorted(map(_names(data).__getitem__, seen))


def _state_dir(tmp_path: Path, data: bytes) -> Path:
    state = tmp_path / "state"
    state.mkdir()
    (state / "simcloud.json").write_bytes(data)
    return state


def _input(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLaziness:
    def test_a_run_decodes_no_earlier_row_or_bill(self, tmp_path, history, decoded, capsys):
        data, _ = history
        state = _state_dir(tmp_path, data)
        before = _saved_parts(state / "simcloud.json")
        request = {"resources": resources_text(), "application": application_text(), "personal": personal_text()}
        argv = ["run", "--state-dir", str(state), "--json"]
        for name, text in request.items():
            argv += [f"--{name}", _input(tmp_path, f"{name}.ini", text)]
        assert main(argv) == EXIT_OK
        new = json.loads(capsys.readouterr().out)["instance_id"]
        assert decoded == {"rows": [], "bills": []}
        after = _saved_parts(state / "simcloud.json")
        assert {key: after[key] for key in before} == before
        assert sorted(set(after) - set(before)) == [("aws", TABLE, new), ("bill", new)]

    @pytest.mark.parametrize("command", ["history", "reproduce"])
    def test_a_read_decodes_only_its_target(self, tmp_path, history, decoded, capsys, command):
        data, urls = history
        state = _state_dir(tmp_path, data)
        url = urls[RUNS // 2]
        provider, _, target = url.split("/")[2:]
        if command == "history":
            argv = ["history", "--url", url]
        else:
            argv = ["reproduce", url, "--personal", _input(tmp_path, "personal.ini", personal_text(provider))]
        assert main(argv + ["--state-dir", str(state), "--json"]) == EXIT_OK
        capsys.readouterr()
        assert decoded == {"rows": [(provider, TABLE, target)], "bills": [target]}

    def test_a_run_slices_nothing_stored_and_appends_to_the_loaded_tail(self, tmp_path, history, sliced, capsys):
        data, _ = history
        state = _state_dir(tmp_path, data)
        argv = ["run", "--state-dir", str(state), "--json"]
        for name, text in {"resources": resources_text(), "application": application_text(),
                           "personal": personal_text()}.items():
            argv += [f"--{name}", _input(tmp_path, f"{name}.ini", text)]
        assert main(argv) == EXIT_OK
        new = json.loads(capsys.readouterr().out)["instance_id"]
        assert sliced(data) == []
        saved = (state / "simcloud.json").read_bytes()
        assert _tail(saved).startswith(_tail(data))
        names = _names(saved)
        assert {ref: names[ref] for ref in _names(data)} == _names(data)
        added = [name for ref, name in names.items() if ref not in _names(data)]
        assert sorted(added) == [
            ("aws", "analytics-workspace", f"export/{new}/manifest.json", 0),
            ("aws", "analytics-workspace", f"export/{new}/part-0000", 0),
            ("aws", "execution-history", f"executions/{new}/Config.zip", 0),
            ("aws", "execution-history", f"executions/{new}/Result.zip", 0),
            ("aws", TABLE, new),
            ("bill", new),
        ]

    def test_a_fetch_slices_only_its_target(self, tmp_path, history, sliced, capsys):
        data, urls = history
        state = _state_dir(tmp_path, data)
        url = urls[RUNS // 2]
        provider, store, target = parse_url(url)
        assert main(["history", "--url", url, "--state-dir", str(state), "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)["record"]
        archives = [(provider, store, record[key], 0) for key in ("config_key", "result_key")]
        assert sliced(data) == sorted([(provider, TABLE, target), ("bill", target), *archives])

    def test_a_save_with_nothing_touched_rewrites_the_same_bytes(self, tmp_path, history, decoded):
        data, _ = history
        path = tmp_path / "simcloud.json"
        path.write_bytes(data)
        SimCloud.load_state(path).save_state(path)
        assert path.read_bytes() == data
        assert decoded == {"rows": [], "bills": []}

    def test_a_read_keeps_no_decoded_bill(self, tmp_path, history, decoded, monkeypatch):
        """A bill no command charged is decoded for each read, as a row no
        command wrote is, and saved back as its bytes with no encoding."""
        data, urls = history
        path = tmp_path / "simcloud.json"
        path.write_bytes(data)
        env = SimCloud.load_state(path)
        scope = urls[0].rsplit("/", 1)[1]
        costs = [env.ledger.breakdown(scope) for _ in range(2)]
        assert costs[0] and costs == [costs[0]] * 2
        assert decoded == {"rows": [], "bills": [scope, scope]}
        encoded = []
        monkeypatch.setattr(ledger_module, "encode_bill", lambda bill: encoded.append(bill) or encode_bill(bill))
        env.save_state(path)
        assert encoded == [] and path.read_bytes() == data


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=20)
_ROWS = st.builds(lambda execution_id, fields: {**fields, "execution_id": execution_id},
                  st.text(min_size=1), st.dictionaries(st.text(), _JSON, max_size=6))
_FRACTIONS = st.fractions(min_value=0, max_value=10**6)
_ENTRIES = st.lists(  # an entry closes at or after it opens, as every ledger's does
    st.tuples(st.text(), st.text(), _FRACTIONS, _FRACTIONS, st.none() | _FRACTIONS).map(
        lambda t: LedgerEntry(t[0], t[1], t[2], t[3], None if t[4] is None else t[3] + t[4], "scope")
    ),
    max_size=6,
)
_BILLS = st.builds(Bill, _ENTRIES, st.dictionaries(st.text(), st.integers(min_value=0)))


class TestCanonicalBytes:
    @settings(max_examples=100, deadline=None)
    @given(row=_ROWS)
    def test_a_row_decodes_and_encodes_to_its_bytes(self, row):
        raw = canonical(row)
        assert canonical(decode_row("aws", "t", row["execution_id"], raw)) == raw

    @settings(max_examples=100, deadline=None)
    @given(bill=_BILLS)
    def test_a_bill_decodes_and_encodes_to_its_bytes(self, bill):
        raw = encode_bill(bill)
        again = decode_bill("scope", raw)
        assert encode_bill(again) == raw
        assert again.entries == [e for e in bill.entries if e.close_time is not None]
        assert again.requests == bill.requests

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(_ROWS, max_size=5), charges=st.lists(st.tuples(st.text(), st.text()), max_size=5))
    def test_a_file_saves_back_the_same_whether_nothing_or_everything_was_read(self, tmp_path_factory, rows, charges):
        env = SimCloud()
        provider = env.provider("aws")
        for row in rows:
            provider.db_put("t", row, row["execution_id"])
        for scope, operation in charges:
            env.ledger.charge_request(scope, operation)
        network_id = provider.create_network("net")
        cluster_id = provider.create_cluster("c5d.large", 1, "run")
        env.clock.advance_to(Fraction(7, 2))
        provider.delete_cluster(cluster_id)
        env.clock.advance_to(Fraction(9, 2))
        provider.delete_network(network_id)  # closed later, in another scope
        path = tmp_path_factory.mktemp("state") / "simcloud.json"
        env.save_state(path)
        data = path.read_bytes()
        SimCloud.load_state(path).save_state(path)
        assert path.read_bytes() == data
        loaded = SimCloud.load_state(path)
        for table, stored in loaded.provider("aws").tables.items():
            for key, part in stored.items():
                row = decode_row("aws", table, key, loaded.tail.read(part))
                assert canonical(row) == canonical(provider.tables[table][key])
        assert loaded.ledger.breakdown("run") == env.ledger.breakdown("run")
        assert loaded.ledger.breakdown("net") == env.ledger.breakdown("net")
        for scope in {scope for scope, _ in charges}:
            loaded.ledger.breakdown(scope)
        loaded.save_state(path)
        assert path.read_bytes() == data


_COMMANDS = st.lists(
    st.tuples(st.just("run"), st.sampled_from(PROVIDERS), st.booleans())
    | st.tuples(st.just("reproduce"), st.integers(0, 99))
    | st.tuples(st.just("rewrite"), st.sampled_from([0, 100, 20_000]))
    | st.tuples(st.just("charge"), st.integers(0, 99))
    | st.just(("save",)),
    max_size=14,
)


def _stored(env: SimCloud) -> tuple[list, list]:
    """(provider, table, id) of each row, longest first, and the scope of
    each bill, in index order, that are still references into the loaded tail."""
    state = env.to_state()
    rows = [(part[1], (name, table, key)) for name, pstate in state["providers"].items()
            for table, pairs in pstate["tables"].items() for key, part in pairs if type(part) is list]
    return [row for _, row in sorted(rows, reverse=True)], [
        scope for scope, part in state["ledger"]["bills"] if type(part) is list]


def _rewrite_the_longest_record(env: SimCloud, note: str) -> None:
    """Write the longest record still stored in the loaded tail again, with ``note``."""
    (provider, table, key), *_ = _stored(env)[0]
    (record,) = env.provider(provider).db_query(table, {"execution_id": key}, key)
    store = HistoryStore(env, provider, parse_url(record["history_url"])[1], table)
    store.put_record(key, {**record, "note": note})


class TestAppendedSaves:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(commands=_COMMANDS)
    def test_every_save_loads_as_the_environment_it_saved(self, tmp_path_factory, commands):
        """From the state golden, loaded, any runs, reproductions, rewrites of
        the longest loaded record (which may grow it past the rest of the
        tail, so that its next rewrite leaves more dead bytes than live
        ones) and charges of loaded bills, with a save and a load between
        some of them.  Each save loads as the environment it saved, keeps no
        more dead bytes than live ones, and either appends to the loaded tail
        or, when that would keep more dead bytes than live ones, writes what
        an environment that never loaded writes for the same content."""
        directory = tmp_path_factory.mktemp("state")
        path, fresh = directory / "simcloud.json", directory / "fresh.json"
        shutil.copyfile(GOLDEN, path)
        env = SimCloud.load_state(path)
        urls = sorted(json.loads(env.tail.read(row))["history_url"]
                      for p in env.providers.values() for rows in p.tables.values() for row in rows.values())
        for command, *args in commands + [("save",)]:
            if command == "run":
                provider, history = args
                outcome = Orchestrator(env).run(generate_pipeline(make_request(provider=provider)),
                                                record_history=history)
                urls += [outcome.history_url] if outcome.history_url else []
            elif command == "reproduce":
                url = urls[args[0] % len(urls)]
                try:
                    outcome = reproduce(env, url, OverrideSet(personal_text=personal_text(parse_url(url)[0]))).outcome
                except CloudRerunError:
                    continue
                urls += [outcome.history_url]
            elif command == "rewrite" and _stored(env)[0]:
                _rewrite_the_longest_record(env, "x" * args[0])
            elif command == "charge" and _stored(env)[1]:
                scopes = _stored(env)[1]
                env.ledger.charge_request(scopes[args[0] % len(scopes)], "db_read")
            elif command == "save":
                loaded = _tail(path.read_bytes())
                kept = sum(part[1] for _, part in _named_references(env.to_state()) if type(part) is list)
                before, dump = resolved_state(env), logical_dump(env)
                env.save_state(path)
                data = path.read_bytes()
                env = SimCloud.load_state(path)
                assert logical_dump(env) == dump and resolved_state(env) == before
                live, dead = _live_and_dead(data)
                assert dead <= live
                if len(loaded) - kept > kept:
                    SimCloud.from_state(before, b"").save_state(fresh)
                    assert data == fresh.read_bytes()
                else:
                    assert _tail(data).startswith(loaded)

    def test_a_save_that_would_keep_more_dead_bytes_than_live_ones_writes_the_fresh_layout(self, tmp_path):
        """Two rewrites of a record grown past the rest of the tail: the first
        appends, the second leaves the grown bytes dead and rewrites the file."""
        path = tmp_path / "simcloud.json"
        shutil.copyfile(GOLDEN, path)
        size = len(_tail(GOLDEN.read_bytes()))
        written = []
        for note in ("x" * size, "y"):
            env = SimCloud.load_state(path)
            _rewrite_the_longest_record(env, note)
            loaded = _tail(path.read_bytes())
            env.save_state(path)
            written.append(path.read_bytes())
        assert _tail(written[0]).startswith(_tail(GOLDEN.read_bytes()))
        assert not _tail(written[1]).startswith(loaded)
        SimCloud.from_state(resolved_state(env), b"").save_state(tmp_path / "fresh.json")
        assert written[1] == (tmp_path / "fresh.json").read_bytes()
        assert _live_and_dead(written[1])[1] == 0


def _damage(path: Path, pick, damage=lambda raw: b"\xff" * len(raw)) -> None:
    """Replace the bytes of the row or bill whose reference ``pick`` finds in the
    snapshot by ``damage`` of them, which keeps their length."""
    data = path.read_bytes()
    magic, line, tail = data.split(b"\n", 2)
    start, length = pick(json.loads(line)["state"])
    damaged = damage(tail[start:start + length])
    assert len(damaged) == length
    tail = tail[:start] + damaged + tail[start + length:]
    path.write_bytes(magic + b"\n" + line + b"\n" + tail)


def _close_before_open(raw: bytes) -> bytes:
    """A bill whose first entry has its open and close times swapped."""
    bill = json.loads(raw)
    resource_id, category, price, opened, closed = bill["entries"][0]
    assert Fraction(opened) < Fraction(closed)
    bill["entries"][0] = [resource_id, category, price, closed, opened]
    return canonical(bill)


class TestDamage:
    @pytest.mark.parametrize("part", ["row", "bill", "closed-before-open"])
    def test_a_damaged_part_is_named_by_the_command_that_reads_it(self, tmp_path, history, capsys, part):
        data, urls = history
        state = _state_dir(tmp_path, data)
        damaged_url, other_url = urls[6], urls[8]
        damaged = damaged_url.rsplit("/", 1)[1]
        assert damaged.startswith("aws-")
        if part == "row":
            message = f"aws table {TABLE!r}: row {damaged!r} is damaged"
            _damage(state / "simcloud.json",
                    lambda s: dict(s["providers"]["aws"]["tables"][TABLE])[damaged])
        elif part == "bill":
            message = f"the bill of scope {damaged!r} is damaged"
            _damage(state / "simcloud.json", lambda s: dict(s["ledger"]["bills"])[damaged])
        else:
            message = f"the bill of scope {damaged!r} is damaged: ValueError: entry"
            _damage(state / "simcloud.json", lambda s: dict(s["ledger"]["bills"])[damaged], _close_before_open)
        saved = (state / "simcloud.json").read_bytes()
        assert main(["history", "--url", other_url, "--state-dir", str(state), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["url"] == other_url
        personal = _input(tmp_path, "personal.ini", personal_text())
        for argv in (["history", "--url", damaged_url], ["reproduce", damaged_url, "--personal", personal]):
            assert main(argv + ["--state-dir", str(state)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, err
        assert (state / "simcloud.json").read_bytes() == saved

    @pytest.mark.parametrize("part", ["row", "bill"])
    def test_an_exponent_beyond_the_int_digit_limit_fails_the_command_that_reads_it(self, tmp_path, capsys, part):
        """A loaded row whose ``submitted_at`` or a loaded bill whose price is
        ``1e100000`` fails the history query or the fetch that reads it."""
        env = SimCloud()
        url = Orchestrator(env).run(generate_pipeline(make_request())).history_url
        execution_id = url.rsplit("/", 1)[1]
        state = env.to_state()
        if part == "row":
            (pair,) = state["providers"]["aws"]["tables"][TABLE]
            pair[1] = canonical({**json.loads(pair[1]), "submitted_at": "1e100000"})
            argv, message = ["history"], "error: the exponent of '1e100000' exceeds"
        else:
            (pair,) = [pair for pair in state["ledger"]["bills"] if pair[0] == execution_id]
            bill = json.loads(pair[1])
            bill["entries"][0][2] = "1e100000"
            pair[1] = canonical(bill)
            argv, message = ["history", "--url", url], f"error: the bill of scope {execution_id!r} is damaged"
            with pytest.raises(ValueError, match="exponent"):
                decode_bill(execution_id, pair[1])
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        SimCloud.from_state(state, b"").save_state(state_dir / "simcloud.json")
        saved = (state_dir / "simcloud.json").read_bytes()
        assert main(argv + ["--state-dir", str(state_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(message)
        assert (state_dir / "simcloud.json").read_bytes() == saved

    @pytest.mark.parametrize("part", ["request-count", "open-with-close", "row-without-its-id"])
    def test_each_stored_byte_check_fails_its_command_and_names_the_part(self, tmp_path, capsys, part):
        """A bill whose request count is no int, an open entry saved with a
        close time and a row that is not an object with its execution id each
        fail the command that reads them, with one line naming the part.  No
        save writes an open entry, so a file holding one fails every command."""
        env = SimCloud()
        url = Orchestrator(env).run(generate_pipeline(make_request())).history_url
        execution_id = url.rsplit("/", 1)[1]
        state = env.to_state()
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        path = state_dir / "simcloud.json"
        if part == "request-count":
            (pair,) = [pair for pair in state["ledger"]["bills"] if pair[0] == execution_id]
            pair[1] = canonical({**json.loads(pair[1]), "requests": {"db_put": "1"}})
            argvs = [["history", "--url", url]]
            message = f"error: the bill of scope {execution_id!r} is damaged: ValueError: request counts"
        elif part == "row-without-its-id":
            (pair,) = state["providers"]["aws"]["tables"][TABLE]
            pair[1] = canonical({**json.loads(pair[1]), "execution_id": "aws-exec-0099"})
            argvs = [["history", "--json"]]
            message = f"error: aws table {TABLE!r}: row {execution_id!r} is damaged: not an object"
        SimCloud.from_state(state, b"").save_state(path)
        if part == "open-with-close":
            magic, line, tail = path.read_bytes().split(b"\n", 2)
            index = json.loads(line)
            assert index["state"]["ledger"]["open"] == []
            # a network opened after the run, as a save that kept open entries wrote it, with a close time
            index["state"]["ledger"]["open"] = [{
                "category": "network", "close_time": "1", "open_time": str(env.clock.now()),
                "resource_id": "aws-net-0002", "scope": "loose", "unit_price_hour": "1/100",
            }]
            path.write_bytes(magic + b"\n" + json.dumps(index).encode() + b"\n" + tail)
            personal = _input(tmp_path, "personal.ini", personal_text())
            argvs = [["history"], ["history", "--url", url], ["reproduce", url, "--personal", personal]]
            message = f"error: {path}: malformed state file: ValueError: ledger.open is [{{'category': 'network'"
        saved = path.read_bytes()
        for argv in argvs:
            assert main(argv + ["--state-dir", str(state_dir)]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1, err
        assert path.read_bytes() == saved

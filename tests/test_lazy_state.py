"""The state file's rows and bills are decoded only when a command reads them.

A command on a state directory with 200 earlier runs must decode no earlier
row or bill to make a run, and only its target's row and bill to fetch or
reproduce one; every row and bill it leaves alone is saved back byte for
byte.  Decoding a row or bill and encoding it again gives back its bytes,
so a save writes the same file whether nothing or everything was read.  A
damaged row or bill is reported, naming it, by the command that reads it.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.caam import generate_pipeline
from cloudrerun.cli import EXIT_OK, EXIT_USAGE, main
from cloudrerun.runtime import Orchestrator
from cloudrerun.simcloud import ledger as ledger_module
from cloudrerun.simcloud import provider as provider_module
from cloudrerun.simcloud.ledger import Bill, LedgerEntry, canonical, decode_bill, encode_bill
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud, decode_row

from helpers import application_text, make_request, personal_text, resources_text

RUNS = 200
TABLE = "execution-records"


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
        provider.create_network("net")
        cluster_id = provider.create_cluster("c5d.large", 1, "run")
        env.clock.advance_to(Fraction(7, 2))
        provider.delete_cluster(cluster_id)  # the network stays open, in another scope
        path = tmp_path_factory.mktemp("state") / "simcloud.json"
        env.save_state(path)
        data = path.read_bytes()
        SimCloud.load_state(path).save_state(path)
        assert path.read_bytes() == data
        loaded = SimCloud.load_state(path)
        for table, stored in loaded.provider("aws").tables.items():
            for key, raw in stored.items():
                stored[key] = decode_row("aws", table, key, raw)
        assert loaded.ledger.breakdown("run") == env.ledger.breakdown("run")
        for scope in {scope for scope, _ in charges}:
            loaded.ledger.breakdown(scope)
        loaded.save_state(path)
        assert path.read_bytes() == data


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
        SimCloud.from_state(state).save_state(state_dir / "simcloud.json")
        saved = (state_dir / "simcloud.json").read_bytes()
        assert main(argv + ["--state-dir", str(state_dir)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(message)
        assert (state_dir / "simcloud.json").read_bytes() == saved

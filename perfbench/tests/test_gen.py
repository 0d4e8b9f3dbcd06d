from collections import Counter

from perfbench import gen

MIX = {"run": 0.6, "reproduce": 0.2, "query": 0.1, "fetch": 0.1}


def test_same_seed_same_inputs():
    assert gen.Inputs("7").plan(300, MIX, 10) == gen.Inputs("7").plan(300, MIX, 10)
    assert gen.Inputs("7").plan(300, MIX, 10) != gen.Inputs("8").plan(300, MIX, 10)


def test_runs_cover_every_combination_claimed():
    inputs = gen.Inputs("1")
    runs = [inputs.run() for _ in range(2000)]
    combos = Counter((r.provider, r.engine, r.mode, r.poll_window) for r in runs)
    for provider, engines in gen.ENGINES.items():
        for engine in engines:
            for mode, poll_window in set(gen.EXEC_DECK):
                assert combos[(provider, engine, mode, poll_window)] > 0, (provider, engine, mode)
    assert not any(r.provider == "azure" and r.engine == "spark" for r in runs)
    assert Counter(r.nodes for r in runs) == {n: 250 for n in range(1, 9)}
    assert sum(r.mode == "sdk" for r in runs) == 600
    assert sum(r.history for r in runs) == 1600
    assert sum(r.fails for r in runs) == 100
    assert {r.application.count("bootstrap =") for r in runs} == {0, 1}
    datasets = Counter(r.application.split("data_uri = ")[1].split("\n")[0].count(",") + 1
                       for r in runs)
    assert set(datasets) == {1, 2, 3}


def test_plans_hold_each_kind_in_its_share_and_refer_back():
    plan = gen.Inputs("3").plan(1010, MIX, 10)
    assert Counter(kind for kind, _ in plan) == {"run": 610, "reproduce": 200,
                                                 "query": 100, "fetch": 100}
    assert all(kind == "run" for kind, _ in plan[:10])
    repro_kinds = set()
    for index, (kind, spec) in enumerate(plan):
        if kind not in ("reproduce", "fetch"):
            continue
        assert spec.target < index
        target_kind, target = plan[spec.target]
        if kind == "reproduce":
            repro_kinds.add(spec.kind)
            assert target_kind == "run" and target.history and not target.fails
            if spec.kind == "cross-cloud":
                assert spec.target_provider != target.provider
                assert target.engine in gen.ENGINES[spec.target_provider]
        else:
            assert target.history and (target_kind == "reproduce" or not target.fails)
    assert repro_kinds == set(gen.REPRODUCTION_KINDS)


def test_status_queries_always_filter_on_status():
    plan = gen.Inputs("4").plan(500, {"run": 0.5, "query": 0.5}, 0, status_queries=True)
    queries = [spec for kind, spec in plan if kind == "query"]
    assert len(queries) == 250 and all("status" in dict(q.filters) for q in queries)

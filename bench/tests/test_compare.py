import pytest

from bench.compare import compare, stamp_problems, verdict

STAMP = {"cpus": 2, "blas_threads": {"OMP_NUM_THREADS": "1"}, "python": "3.11",
         "numpy": "2", "machine": "x86_64", "git_sha": "a", "fixture": ["f"]}


def _run(seed, started, value, sha="a", failed=0):
    return {"seed": seed, "started": started, "seconds": 15, "trace": 0,
            "stamp": dict(STAMP, git_sha=sha),
            "workloads": {"chat": {
                "attempted": 100, "failed": failed,
                "metrics": {"latency_ms": {"value": value, "unit": "ms"}}}}}


DECLARED = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower",
                            "bound": 0.1}]}


def _sets(parent, change, alternate=True):
    a, b = [], []
    for i, (x, y) in enumerate(zip(parent, change)):
        first = 2 * i if (i % 2 == 0 or not alternate) else 2 * i + 1
        a.append(_run(i, first, x))
        b.append(_run(i, 4 * i + 1 - first, y, sha="b"))
    return a, b


def _verdict(parent, change, **kw):
    a, b = _sets(parent, change, **kw)
    return compare(a, b, DECLARED)[0]["verdict"]


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_improved_needs_ten_alternating_wins_beyond_the_spread():
    faster = [v * 0.9 for v in PARENT]
    assert _verdict(PARENT, faster) == "improved"
    assert _verdict(PARENT, faster, alternate=False) == "unchanged"
    assert _verdict(PARENT[:9], faster[:9]) == "unchanged"


def test_regressed_beyond_the_bound_only():
    assert _verdict(PARENT, [v * 1.15 for v in PARENT]) == "regressed"
    assert _verdict(PARENT, [v * 1.05 for v in PARENT]) == "unchanged"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 9.5, 10.5, 8.0, 12.0]
    assert _verdict(noisy, noisy) == "unresolved"
    assert verdict(noisy, [1.0] * 10, [], "lower", 0.1, False) == "unchanged"


def test_fail_share_rise_is_flagged():
    a, b = _sets(PARENT, PARENT)
    b[0]["workloads"]["chat"]["failed"] = 1
    rows = {r["metric"]: r for r in compare(a, b, DECLARED)}
    assert rows["fail_share"]["verdict"] == "failures-rose"


@pytest.mark.parametrize("change", [
    {"cpus": 4}, {"numpy": "1"}, {"blas_threads": {"OMP_NUM_THREADS": "2"}},
])
def test_refuses_different_hosts(change):
    a, b = _sets(PARENT, PARENT)
    b[3]["stamp"].update(change)
    assert any("host stamps differ" in p for p in stamp_problems(a, b))


def test_refuses_a_side_mixing_commits():
    a, b = _sets(PARENT, PARENT)
    assert stamp_problems(a, b) == []
    b[0]["stamp"]["git_sha"] = "c"
    assert any("side B mixes" in p for p in stamp_problems(a, b))

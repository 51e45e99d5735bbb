"""Tests for the benchmark's own code (not for spnum).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

CLI = run.load_cli()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_request_list(workload):
    first = workloads.dump(workloads.generate(workload, 7))
    assert workloads.dump(workloads.generate(workload, 7)) == first
    assert workloads.dump(workloads.generate(workload, 8)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_respect_size_and_guard_limits(workload):
    requests = workloads.generate(workload, 3)
    assert len(requests) >= 100  # p90 keeps ten samples beyond it
    for req in requests:
        e = req["expect"]
        if e["kind"] == "digits":
            assert workloads.DIGITS_MIN <= e["n"] <= workloads.DIGITS_MAX
        if e["kind"] == "census":
            assert 10**4 <= e["rows"][-1][0] <= 10**9


def _responses(requests):
    return [run.issue(CLI.main, req["argv"]) for req in requests]


def _judge(requests, *passes):
    responses = run.Responses()
    for results in passes:
        responses.add(0.0, results)
    return run.judge(requests, responses)


def _small(workload, kinds, count=3):
    """The cheapest few requests of the given kinds from one seed."""
    requests = [r for r in workloads.generate(workload, 1) if r["expect"]["kind"] in kinds]
    return sorted(requests, key=lambda r: len(" ".join(r["argv"])))[:count]


def test_correct_answers_pass_and_corrupted_ones_fail():
    requests = (_small("census", {"census"}) + _small("digits", {"digits"})
                + _small("witness", {"classify", "gap", "sum", "between", "pell"}, 12))
    first = _responses(requests)
    assert _judge(requests, first, first) == []
    for i, (dt, rc, out, err) in enumerate(first):
        # bump the last digit of the output: still well-formed, now wrong
        pos = max(j for j, ch in enumerate(out) if ch.isdecimal()) if out else None
        if pos is None:
            continue
        bad = out[:pos] + str((int(out[pos]) + 1) % 10) + out[pos + 1:]
        corrupted = list(first)
        corrupted[i] = (dt, rc, bad, err)
        assert len(_judge(requests, corrupted)) == 1, (requests[i]["argv"], bad)
        assert len(_judge(requests, corrupted, corrupted)) == 2  # every wrong response counts


def test_wrong_exit_code_and_nondeterminism_count_as_failures():
    requests = _small("witness", {"classify"}, 2)
    first = _responses(requests)
    dt, rc, out, err = first[0]
    assert len(_judge(requests, [(dt, 2, out, err)] + first[1:])) == 1
    second = [first[0], (dt, rc, first[1][2] + " ", err)]
    assert len(_judge(requests, first, second)) == 1
    assert run.issue(CLI.main, ["classify", "not-a-number"])[1] == 2


def test_self_time_arithmetic_on_hand_built_tree():
    S = lambda name, parent, start, end, busy=None, nested=False: (  # noqa: E731
        name, parent, 0, start, end, end - start if busy is None else busy, nested, None)
    tree = [
        S("cli.main", -1, 0.0, 10.0),  # 0
        S("census.kp_count", 0, 1.0, 7.0),  # 1
        S("arith.is_prime", 1, 2.0, 4.0),  # 2
        S("analytic.zeta", 0, 8.0, 9.0),  # 3
        S("construct.gap_witness", -1, 20.0, 25.0),  # 4
        S("construct.gap_witness", 4, 21.0, 23.0, nested=True),  # 5
        S("census.digit_census", -1, 30.0, 40.0),  # 6
        S("census.kp_enumerate", 6, 31.0, 39.0, busy=3.0),  # 7: generator
        S("census.sieve_primes", 7, 31.0, 32.0),  # 8
    ]
    assert spans.self_times(tree) == [3.0, 4.0, 2.0, 1.0, 3.0, 2.0, 7.0, 2.0, 1.0]
    m = spans.layer_metrics(tree)
    assert (m["cli.self_s"], m["cli.calls"]) == (3.0, 1)
    assert (m["census.self_s"], m["census.calls"]) == (4.0 + 7.0 + 2.0 + 1.0, 4)
    assert (m["arith.self_s"], m["analytic.self_s"], m["construct.self_s"]) == (2.0, 1.0, 5.0)
    assert m["construct.gap_witness.s"] == 5.0  # the nested call is not counted twice
    assert (m["census.kp_count.s"], m["census.kp_enumerate.s"]) == (6.0, 3.0)
    assert m["classify.member_ratio"] == 0.0  # no attempts


def test_tracer_rebinds_across_modules_and_restores():
    from spnum import census, construct

    originals = (census.sieve_primes, construct.sieve_primes, CLI.main)
    with spans.Tracer() as tracer:
        assert construct.sieve_primes is census.sieve_primes is not originals[0]
        rc = run.issue(CLI.main, ["digits", "1000"])[1]
        run.issue(CLI.main, ["census", "100000", "--family", "psp"])
    assert rc == 0
    assert (census.sieve_primes, construct.sieve_primes, CLI.main) == originals
    edges = {(s[0], tracer.spans[s[1]][0]) for s in tracer.spans if s[1] >= 0}
    assert tracer.spans[0][0] == "cli.main"
    assert ("census.kp_enumerate", "census.digit_census") in edges
    assert ("census.sieve_primes", "census.kp_enumerate") in edges
    assert ("census.sieve_primes", "census.psp_count") in edges
    m = spans.layer_metrics(tracer.spans)
    # psp_count(10^5): pi queried at 10^5 // p^2 for the primes p <= 223
    assert m["census.pi_queries"] == len(oracle.primes_upto(223))
    assert m["census.sieved_n"] == 10**5 // 4
    assert set(spans.PER_LAYER) == set(m) | {"trace.overhead_frac"}


def test_pins_agree_with_enumeration_and_published_values():
    for x, want in oracle.PUBLISHED_PI.items():
        if x <= 10**7:
            assert oracle.PiTable(x).pi(x) == want
    pins = workloads.PINS["census"]
    for j, n in enumerate(pins["grid"]):
        if n > 10**5:
            break
        assert pins["kp2"][j] == len(oracle.kp_values(n, 2))
        assert pins["kp3"][j] == len(oracle.kp_values(n, 3))
        assert pins["psp"][j] == len(oracle.kp_values(n, 2, prime_base=True))
    assert workloads.PINS["x2p1"][:3] == [7, 18, 32]  # README: x2p1 --bound 1100
    assert [x for x in workloads.PINS["x2p1"] if x <= 1000] == [
        x for x in range(1, 1001) if _is_sp_by_trial_division(x * x + 1)]
    assert [x for x in workloads.PINS["x3p1"] if x <= 100] == [
        x for x in range(1, 101) if _is_sp_by_trial_division(x**3 + 1)]


def _is_sp_by_trial_division(n: int) -> bool:
    odd, p, m = [], 2, n
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            odd.append(p)
        p += 1
    if m > 1:
        odd.append(m)
    return len(odd) == 1 and odd[0] != n


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER


def test_missing_program_is_refused(monkeypatch):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-checkout" / "src")
    with pytest.raises(run.ProgramMissing):
        run.load_cli()

import json
import math
import random
import warnings
from types import SimpleNamespace

import pytest

from mgonal import (
    InputError,
    MgonalForm,
    ResourceError,
    evaluate,
    exceptional_set,
    locally_represents,
    represents,
    scaling_experiment,
)

from mgonal import census
from mgonal.localrep import _locally_represented, local_bits

from oracles import reachable_values


def simple_double_scan(form, bound):
    """Independent serial census: set-based reachability + per-N local calls."""
    reachable = reachable_values(form, bound)
    exceptional = []
    n_local = 0
    for n in range(bound + 1):
        loc = bool(locally_represents(form, n))
        n_local += loc
        if loc and n not in reachable:
            exceptional.append(n)
    return exceptional, n_local, len(reachable)


def test_five_squares_no_exceptions():
    form = MgonalForm(4, (1, 1, 1, 1, 1))
    report = exceptional_set(form, 2000)
    assert report.exceptional == ()
    exc, nloc, nrep = simple_double_scan(form, 2000)
    assert exc == []
    assert report.locally_represented_count == nloc
    assert report.represented_count == nrep


def test_triangular_no_exceptions():
    form = MgonalForm(3, (1, 1, 1, 1, 1))
    report = exceptional_set(form, 1000)
    assert report.exceptional == ()
    assert report.max_exceptional is None


def test_pentagonal_census_against_double_scan():
    form = MgonalForm(5, (1, 1, 1, 1, 1))
    report = exceptional_set(form, 1500)
    exc, nloc, nrep = simple_double_scan(form, 1500)
    assert list(report.exceptional) == exc
    assert report.locally_represented_count == nloc
    assert report.represented_count == nrep


def _last_term_candidates(report):
    """The locally represented N that the first rank-1 terms miss, and the
    number of distinct last-term values, both by set-based reachability: the
    census probes those N when they are no more than those values, and sweeps
    the last term otherwise."""
    form, bound = report.form, report.bound
    first = reachable_values(SimpleNamespace(m=form.m, coeffs=form.coeffs[:-1]),
                             bound)
    last = reachable_values(SimpleNamespace(m=form.m, coeffs=form.coeffs[-1:]),
                            bound)
    candidates = [n for n in range(bound + 1)
                  if report.locally_represented(n) and n not in first]
    return candidates, len(last)


def _census_and_sweep(monkeypatch, form, bound):
    """The census report, and whether it swept the last term: the reach fold
    adds rank-2 terms to the first, and a sweep adds one more."""
    added = []
    add_term = census._add_term
    monkeypatch.setattr(census, "_add_term",
                        lambda *args: added.append(args) or add_term(*args))
    report = exceptional_set(form, bound)
    assert len(added) in (form.rank - 2, form.rank - 1)
    return report, len(added) == form.rank - 1


@pytest.mark.parametrize("m, coeffs, bound", [
    (8, (3, 3, 3, 3, 1), 1500),  # the first four terms reach only 3Z
    (5, (1, 1, 1), 1500),
    (7, (1, 2, 3), 1500),
    (5, (1, 1, 1, 1, 10007), 1000),  # the last term takes the value 0 only
])
def test_swept_last_stage_against_double_scan(monkeypatch, m, coeffs, bound):
    form = MgonalForm(m, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, swept = _census_and_sweep(monkeypatch, form, bound)
        exc, nloc, nrep = simple_double_scan(form, bound)
    assert list(report.exceptional) == exc
    assert report.locally_represented_count == nloc
    assert report.represented_count == nrep
    candidates, values = _last_term_candidates(report)
    assert swept == (len(candidates) > values)
    if coeffs[-1] <= bound:
        assert swept  # the sweep, not the probes
    else:
        assert values == 1


def test_probed_last_term_witnesses(monkeypatch):
    form = MgonalForm(12, (2, 3, 5, 7, 11))
    bound = 10_000
    report, swept = _census_and_sweep(monkeypatch, form, bound)
    candidates, values = _last_term_candidates(report)
    assert not swept and len(candidates) <= values  # the probes, not the sweep
    reachable = reachable_values(form, bound)
    exceptional = set(report.exceptional)
    assert exceptional == {n for n in candidates if n not in reachable}
    assert report.represented_count == len(reachable)
    last_only = [n for n in candidates if n not in exceptional]
    assert last_only
    for n in last_only:
        assert evaluate(form, report.witness(n)) == n
    for n in range(bound + 1):
        if n in exceptional or not report.locally_represented(n):
            assert report.witness(n) is None, n


def test_witnesses_verify():
    form = MgonalForm(5, (1, 2, 3, 4, 5))
    bound = 600
    report = exceptional_set(form, bound)
    reachable = reachable_values(form, bound)
    for n in range(bound + 1):
        w = report.witness(n)
        assert (w is not None) == (n in reachable), n
        if w is None:
            assert represents(form, n) is None
        else:
            assert evaluate(form, w) == n
        if report.locally_represented(n) and w is None:
            assert n in report.exceptional


@pytest.mark.parametrize("m, coeffs", [
    (8, (1, 1, 4)),
    (7, (3, 9, 1, 6, 6)),
    (4, (2, 3, 9, 18, 27)),
    (4, (1, 1, 1, 8)),
    (20, (1, 4, 16, 64, 5)),
    (16, (1, 3, 9, 27, 27)),
    (12, (2, 3, 5, 7, 11)),
    (3, (1, 1, 83)),
    (3, (1, 1, 257)),
    (4, (1, 1, 512)),
])
def test_range_local_flags_match_per_n(m, coeffs):
    form = MgonalForm(m, coeffs)
    bound = 20_000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = exceptional_set(form, bound)
    # the census counts from the periodic bulk flags; each must match per N
    flags = local_bits(form, bound).to_bytes(bound + 1, "big")
    for n in range(bound + 1):
        expected = locally_represents(form, n).represented
        assert flags[n] == expected, n
        assert report.locally_represented(n) is expected, n


def test_parallel_serial_identical():
    form = MgonalForm(6, (1, 1, 2, 2, 3))
    serial = exceptional_set(form, 4000, jobs=1)
    parallel = exceptional_set(form, 4000, jobs=4)
    assert serial.to_json_bytes(stable=True) == parallel.to_json_bytes(stable=True)


def test_low_rank_warns_and_tiny_rank_rejected():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exceptional_set(MgonalForm(4, (1, 2, 3)), 50)
    assert any("rank" in str(w.message) for w in caught)
    with pytest.raises(InputError):
        exceptional_set(MgonalForm(4, (1, 2)), 50)


def test_bound_guards():
    form = MgonalForm(5, (1, 1, 1, 1, 1))
    with pytest.raises(InputError):
        exceptional_set(form, 0)
    with pytest.raises(ResourceError):
        exceptional_set(form, 10**9)


def test_exceptional_entries_reverify():
    # rank-4 form with a genuine exceptional integer inside the bound
    form = MgonalForm(4, (1, 1, 1, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = exceptional_set(form, 500)
    for n in report.exceptional:
        assert locally_represents(form, n).represented
        assert represents(form, n) is None
    # classical: x^2+y^2+z^2+8w^2 misses nothing locally but... verify the
    # census against the independent scan either way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exc, _, _ = simple_double_scan(form, 500)
    assert list(report.exceptional) == exc


def test_report_json_schema():
    form = MgonalForm(5, (1, 1, 1, 1, 1))
    report = exceptional_set(form, 300)
    data = json.loads(report.to_json_bytes().decode())
    assert data["form"] == {"m": 5, "coeffs": [1, 1, 1, 1, 1]}
    assert data["bound"] == 300
    assert data["exceptional"] == []
    assert set(data["counts"]) == {"locally_represented", "represented"}
    assert "timings" in data
    stable = json.loads(report.to_json_bytes(stable=True).decode())
    assert "timings" not in stable


def test_timings_add_up():
    report = exceptional_set(MgonalForm(5, (1, 2, 3, 4, 5)), 3000)
    t = report.timings
    assert set(t) == {"reach_seconds", "local_seconds", "extract_seconds",
                      "total_seconds"}
    assert all(v >= 0 for v in t.values())
    assert math.isclose(t["reach_seconds"] + t["local_seconds"]
                        + t["extract_seconds"], t["total_seconds"], abs_tol=1e-9)


@pytest.mark.parametrize("m, coeffs", [(5, (1, 2, 3, 4, 5)), (10, (1, 1, 1, 2, 4))])
def test_per_n_answers_come_from_the_single_target_paths(m, coeffs):
    form = MgonalForm(m, coeffs)
    report = exceptional_set(form, 2000)
    for n in range(2001):
        w, found = report.witness(n), represents(form, n)
        assert w == (None if found is None else found.x), n
        assert w is None or evaluate(form, w) == n
        assert report.locally_represented(n) is _locally_represented(form, n), n


def test_repr_past_the_int_digit_limit():
    # the census's bitsets have more than 4300 decimal digits here, so a
    # report that kept them in its repr would raise ValueError
    report = exceptional_set(MgonalForm(5, (1, 1, 1, 2, 3)), 20000)
    assert isinstance(repr(report), str)


def test_report_csv():
    form = MgonalForm(4, (1, 1, 1, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = exceptional_set(form, 300)
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "N,A,B,evidence"
    assert len(lines) == 1 + len(report.exceptional)


class TestScaling:
    def test_unit_form_rows(self):
        # For m in [5,9] the scans find no exceptional integers.  At m = 10
        # the value table below 6 is {0, 1}, so five terms cannot reach 6
        # while rule 2 makes it locally represented: the exceptional set is
        # exactly {6} (cross-checked against the independent double scan).
        result = scaling_experiment((1, 1, 1, 1, 1), 5, 10)
        assert all(r.max_exceptional is None for r in result.rows[:5])
        assert result.rows[5].m == 10 and result.rows[5].max_exceptional == 6
        exc, _, _ = simple_double_scan(MgonalForm(10, (1, 1, 1, 1, 1)),
                                       20 * 8 ** 3)
        assert exc == [6]
        assert result.fitted_slope is None

    def test_bad_prime_form_rows(self):
        result = scaling_experiment((9, 1, 1, 6, 6), 7, 9, 5)
        assert [r.m for r in result.rows] == [7, 8, 9]
        for r in result.rows:
            assert r.max_exceptional is None or 0 <= r.max_exceptional <= r.bound

    def test_rows_shape_and_bounds(self):
        result = scaling_experiment((1, 1, 1, 2, 4), 5, 8, 10)
        assert [r.m for r in result.rows] == [5, 6, 7, 8]
        for r in result.rows:
            assert r.bound >= 10 * (r.m - 2) ** 3

    def test_csv(self):
        result = scaling_experiment((1, 1, 1, 1, 1), 5, 6)
        lines = result.to_csv(stable=True).strip().split("\n")
        assert lines[0] == "m,bound,max_exceptional,seconds"
        assert len(lines) == 3

    def test_range_past_the_ceiling_runs_no_row(self, monkeypatch):
        # only m >= 138 needs a bound, 20 (m-2)^3, above MAX_BOUND; the range
        # is refused before the census of m = 5
        monkeypatch.setattr(census, "exceptional_set",
                            lambda *args, **kwargs: pytest.fail("a row ran"))
        with pytest.raises(ResourceError):
            scaling_experiment((2, 3, 5, 7, 11), 5, 140)

    def test_empty_range_rejected(self):
        with pytest.raises(InputError):
            scaling_experiment((1, 1, 1, 1, 1), 8, 5)

    def test_slope_requires_three_points(self):
        rng = random.Random(71)
        # synthetic: whatever rows come out, slope is None unless >= 3 nonzero
        result = scaling_experiment((1, 1, 1, 2, 4), 5, 7, 5)
        nonzero = [r for r in result.rows
                   if r.max_exceptional is not None and r.max_exceptional >= 1]
        if len(nonzero) < 3:
            assert result.fitted_slope is None

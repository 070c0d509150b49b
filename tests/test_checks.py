import math
import os
import pathlib
import select

import numpy as np
import pytest
from scipy.special import sici

from vvlab import checks, geometry as geo, study
from vvlab.checks import _hardy_oracle, run_all
from vvlab.cli import cli_main
from vvlab.spaces import gronwall_rk4_trials
from vvlab.study import get_preset


def test_check_results_pass_plain_bools():
    # a numpy comparison left as np.bool_ would not be a bool
    results = run_all(get_preset("rigid-annulus"))
    assert results
    assert all(type(r.passed) is bool for r in results), [
        (r.name, type(r.passed)) for r in results]


def _raise_value_error(*args, **kwargs):
    raise ValueError("injected")


def test_an_exception_in_one_check_fails_that_check_only(monkeypatch, capsys):
    # check_projector is the second check; a non-vvlab exception inside it
    # must become its failed result, and the seven after it must still run
    monkeypatch.setattr(checks, "leray_project", _raise_value_error)
    results = run_all(get_preset("rigid-annulus"))
    assert len(results) == 9
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["projector"]
    assert failed[0].detail == "error: ValueError: injected"
    assert cli_main(["check", "--preset", "rigid-annulus"]) == 1
    out = capsys.readouterr().out
    assert "FAIL projector: error: ValueError: injected" in out
    assert out.count("PASS ") == 8


def test_hardy_oracle_matches_closed_forms():
    # int_0^eta sin^4(pi s/eta) / s^2 = (pi/eta)(Si(2 pi) - Si(4 pi)/2) and
    # int_0^eta (d/ds sin^2(pi s/eta))^2 = pi^2 / (2 eta), on the check's
    # 2,001 nodes
    eta = 0.45
    lhs, rhs = _hardy_oracle(eta, 2001)
    si_2pi, si_4pi = sici(2.0 * math.pi)[0], sici(4.0 * math.pi)[0]
    assert lhs == pytest.approx(math.pi / eta * (si_2pi - si_4pi / 2.0), rel=1e-12)
    assert rhs == pytest.approx(math.pi**2 / (2.0 * eta), rel=1e-12)


GOLDEN = [line for line in (pathlib.Path(__file__).parent / "golden" /
                            "check_details.txt").read_text().splitlines()
          if not line.startswith("#")]


def _golden(preset):
    return [line for line in GOLDEN if line.startswith(preset + " ")]


RIGID_CHECKS = [line.split()[1] for line in _golden("rigid-annulus")]


def _lines(preset, results):
    return [f"{preset} {r.name} {'PASS' if r.passed else 'FAIL'}: {r.detail}"
            for r in results]


def test_check_details_match_golden():
    # each check's name, pass flag and detail on the rigid and vortex
    # presets (the vortex one adds the exact-regime chain), without seconds
    got = [line for preset in ("rigid-annulus", "vortex-annulus")
           for line in _lines(preset, run_all(get_preset(preset)))]
    assert got == GOLDEN


def _on_cores(monkeypatch, tmp_path, cores):
    """Run the suite, and any study it runs, on ``cores`` cores; return a
    call that reads the pids forked so far, by this process or by a
    worker, which appends them to a file (a worker's lists never come
    back)."""
    monkeypatch.setattr(checks, "usable_cores", lambda: cores)
    monkeypatch.setattr(study, "usable_cores", lambda: cores)
    real, log = os.fork, tmp_path / "forks"
    log.touch()

    def fork():
        pid = real()
        if pid:
            with open(log, "a") as fh:
                fh.write(f"{pid}\n")
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return lambda: [int(pid) for pid in log.read_text().split()]


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cores", [4, 2, 1])
def test_check_details_match_golden_on_every_core_count(monkeypatch, tmp_path,
                                                         cores):
    # one worker forked per core past the first, more workers than this
    # host may have cores at 4, each reaped by the time run_all returns;
    # every check runs once, and the details and their order do not depend
    # on who ran which check.  The vortex exact-regime chain's own study
    # forks one worker per core past the first too, in whichever process
    # runs the chain
    pids = _on_cores(monkeypatch, tmp_path, cores)
    for preset in ("rigid-annulus", "vortex-annulus"):
        got = _lines(preset, run_all(get_preset(preset)))
        assert got == _golden(preset)
    assert len(pids()) == 3 * (cores - 1)
    assert all(_reaped(pid) for pid in pids())


@pytest.mark.parametrize("cores", [2, 1])
def test_an_exception_in_one_check_fails_it_alone_on_every_core_count(
        monkeypatch, tmp_path, cores):
    pids = _on_cores(monkeypatch, tmp_path, cores)
    monkeypatch.setattr(checks, "leray_project", _raise_value_error)
    results = run_all(get_preset("rigid-annulus"))
    assert [r.name for r in results] == RIGID_CHECKS
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        ("projector", "error: ValueError: injected")]
    assert all(_reaped(pid) for pid in pids())


@pytest.mark.parametrize("status", [3, 0])
def test_a_worker_that_exits_inside_a_check_fails_that_check_alone(monkeypatch,
                                                                   tmp_path, status):
    # the worker exits inside the first check it takes, and this process
    # waits in its own first check until it has; the check the worker took
    # fails naming the exit status, even a clean one, and this process
    # runs the other eight
    pids = _on_cores(monkeypatch, tmp_path, 2)
    parent, (took, tell) = os.getpid(), os.pipe()
    waited = []

    def exiting(check):
        def run():
            if os.getpid() != parent:
                os.write(tell, b"x")
                os._exit(status)
            if not waited:
                waited.append(select.select([took], [], [], 60.0)[0])
            return check()
        return run

    for name in RIGID_CHECKS:
        monkeypatch.setattr(checks, f"check_{name}",
                            exiting(getattr(checks, f"check_{name}")))
    try:
        results = run_all(get_preset("rigid-annulus"))
    finally:
        os.close(took)
        os.close(tell)
    assert waited == [[took]], "the worker took no check in 60 s"
    assert [r.name for r in results] == RIGID_CHECKS
    wrong = [r for r, line, want in zip(results, _lines("rigid-annulus", results),
                                        _golden("rigid-annulus")) if line != want]
    assert [r.detail for r in wrong] == [f"error: its worker exited with status {status}"]
    assert len(pids()) == 1 and _reaped(pids()[0])


@pytest.mark.parametrize("error", [OSError, DeprecationWarning])
def test_a_worker_that_cannot_start_leaves_every_check_to_this_process(
        monkeypatch, error):
    # an OSError comes before any child exists; Python >= 3.12 under -W
    # error raises its warning against forking a multi-threaded process
    # after the child does, and that child is ended and reaped before the
    # suite runs here alone
    monkeypatch.setattr(checks, "usable_cores", lambda: 2)
    real, calls, made = os.fork, [], []

    def fork():
        calls.append(error)
        if error is OSError:
            raise OSError("synthetic: cannot fork")
        pid = real()
        if pid:
            made.append(pid)
            raise DeprecationWarning("synthetic: the process is multi-threaded")
        return pid

    monkeypatch.setattr(os, "fork", fork)
    got = _lines("rigid-annulus", run_all(get_preset("rigid-annulus")))
    assert got == _golden("rigid-annulus")
    assert len(calls) == 1
    assert len(made) == (error is DeprecationWarning)
    assert all(_reaped(pid) for pid in made)


@pytest.mark.parametrize("field, value", [("y", math.nan), ("bound", math.nan),
                                          ("bound", math.inf)])
def test_a_non_finite_gronwall_trial_fails_the_check(monkeypatch, field, value):
    # a NaN compares False with everything, so "bound below y" alone would
    # count no failure; one non-finite trial of the 100 must fail the check
    def one_bad_trial(**kwargs):
        trials = gronwall_rk4_trials(**kwargs)
        getattr(trials, field)[3] = value
        return trials

    monkeypatch.setattr(checks, "gronwall_rk4_trials", one_bad_trial)
    result = checks.check_gronwall_dominates_rk4()
    assert result.passed is False
    assert result.detail.startswith("failures 1/100, ")


def _cubic_cutoff(geom, distance):
    # 3x^2 - 2x^3 smoothstep: the same plateau and support, but only C^1
    a = geo.CUTOFF_PLATEAU * geom.eta
    x = np.clip((np.asarray(distance, dtype=float) - a) / (geom.eta - a), 0.0, 1.0)
    return 1.0 - x**2 * (3.0 - 2.0 * x)


def _slope_two_distance(geom, wall_id, coords, _exact=geo.wall_distance):
    # _exact is bound here, before the patch replaces geo.wall_distance
    return 2.0 * _exact(geom, wall_id, coords)


@pytest.mark.parametrize("attr, fake, failing", [
    ("collar_cutoff", _cubic_cutoff, "scaled join differences 1.20e+01 (tol 1)"),
    ("wall_distance", _slope_two_distance, "wall distance error 1.00e+00"),
], ids=["c1-cutoff", "slope-2-distance"])
def test_geometry_check_fails_on_a_wrong_geometry(monkeypatch, attr, fake, failing):
    # the check reads the functions a study reads; a cutoff with C^1 joins
    # or a distance of the wrong slope must fail it, the detail naming which
    monkeypatch.setattr(geo, attr, fake)
    result = checks.check_geometry_invariants()
    assert result.passed is False
    assert failing in result.detail

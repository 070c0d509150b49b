"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The coverage test runs one traced study per preset (about 25 s in all).
"""

import os
import shutil
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

run.import_vvlab()


def test_missing_target_is_absent_and_install_is_reversible():
    import vvlab.study

    original = vvlab.study.fit_rate
    targets = [("vvlab.study", "no_such_function", "study.row", "container", None),
               ("vvlab.study", "fit_rate", "study.fit", "stage", None)]
    tracer = Tracer()
    tracer.install(targets)
    assert vvlab.study.fit_rate is not original
    tracer.uninstall()
    assert vvlab.study.fit_rate is original
    assert tracer.absent == ["vvlab.study.no_such_function"]
    absent = tracer.absent_metrics(targets)
    assert "study.row_s" in absent and "study.fit_s" not in absent
    assert set(absent) <= set(PER_LAYER)


def test_speed_sampler_samples_during_op_and_restores_alarm():
    sampler = run.SpeedSampler("scalar")
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    result, net, factor = sampler.time(time.sleep, 1.0)
    elapsed = time.perf_counter() - t0
    assert result is None
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.factors) >= 3 and factor > 0.0
    assert 0.0 < sampler.spent and net + sampler.spent <= elapsed


def test_gate_catches_drift(tmp_path):
    ref = os.path.join(run.HERE, "reference", "rigid-annulus_errors.csv")
    head, rows = run._read_csv(ref)

    def write(rows, scale):
        path = tmp_path / "errors.csv"
        lines = [head] + [",".join(r[:3] + [repr(float(r[3]) * scale)] + r[4:])
                          for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    assert run.errors_drift(write(rows, 4.0), ref, 4.0) == 0.0
    bumped = [list(r) for r in rows]
    bumped[5][3] = repr(float(bumped[5][3]) * (1.0 + 1e-9))
    assert run.errors_drift(write(bumped, 1.0), ref, 1.0) > run.MAX_REL_DRIFT


# closed-form work counts of the shipped presets, per operation: steps x
# walls x components x collar samples; nu x n x steps; nu x times x walls x
# (layer profile + normal corrector) x n
COUNTS = {
    "rigid-study": {"layer.column_steps": 5000 * 2 * 2 * 12,
                    "ns.point_steps": 5 * 2048 * 20000,
                    "spaces.eval_points": 5 * 8 * 2 * 2 * 2048},
    "vortex-study": {"layer.column_steps": 80 * 2 * 2 * 12,
                     "ns.point_steps": 5 * 65536 * 80,
                     "spaces.eval_points": 5 * 8 * 2 * 2 * 65536},
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_study_covers_wall_and_counts_work(workload):
    amp = 2.0
    config = run.build_config(workload, amp)
    tracer = Tracer()
    tracer.install()
    try:
        report = tracer.run_op(1, run.run_op, workload, config)
    finally:
        tracer.uninstall()
    assert run.gate(workload, report, amp) == 0.0
    m = tracer.reduce_op(1)
    assert m["trace.coverage"] >= 0.95
    for name, want in COUNTS[workload].items():
        assert m[name] == want, name
    assert m["layer.distinct_column_frac"] == pytest.approx(1.0 / 12.0)
    assert 0.3 < m["spaces.eval_useful_frac"] < 0.6
    assert tracer.absent == []
    shutil.rmtree(os.path.join(run.OUT, workload), ignore_errors=True)

from vvlab.checks import run_all
from vvlab.study import get_preset


def test_check_results_pass_plain_bools():
    # a numpy comparison left as np.bool_ would not be a bool
    results = run_all(get_preset("rigid-annulus"))
    assert results
    assert all(type(r.passed) is bool for r in results), [
        (r.name, type(r.passed)) for r in results]

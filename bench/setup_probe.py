"""Set-up probes, run in fresh processes by bench/run.py.

    python3 bench/setup_probe.py WORKLOAD AMPLITUDE
    python3 bench/setup_probe.py deps

The first form times the package import (the CLI module, which pulls in
every module), the preset build and the base-flow build.  The second times
only a fixed set of third-party imports (numpy and the scipy modules vvlab
uses today); it does not touch vvlab and serves as the speed reference for
the first.  Each prints the seconds.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (standard library only at import time)

t0 = time.perf_counter()
if sys.argv[1] == "deps":
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
else:
    run.import_vvlab()
    import vvlab.cli  # noqa: E402,F401

    config = run.build_config(sys.argv[1], float(sys.argv[2]))
    config.euler.build(config.geometry)
print(f"setup_s {time.perf_counter() - t0!r}")

"""Regenerate the reference errors.csv files the correctness gate compares
against, at base-flow amplitude 1.

    python3 bench/make_reference.py

The committed files were generated at the commit that introduced the
benchmark.  Regenerate them only when a change is meant to move the
numbers, and state the measured drift with that change.
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    run.import_vvlab()
    from vvlab.study import export_report, get_preset, run_convergence_study

    for preset in ("rigid-annulus", "vortex-annulus"):
        out = os.path.join(run.OUT, "reference", preset)
        export_report(run_convergence_study(get_preset(preset), jobs=1), out)
        dst = os.path.join(HERE, "reference", f"{preset}_errors.csv")
        shutil.copyfile(os.path.join(out, "errors.csv"), dst)
        print(f"wrote {dst}")


if __name__ == "__main__":
    main()

"""The repository benchmark: four workloads driven through ``RunHarness``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root; ``--workload all`` runs every
workload in turn.  See :mod:`perfbench.bench` for what is measured and
:mod:`perfbench.workloads` for why each workload exists.
"""

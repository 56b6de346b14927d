"""The speculation differential tier.

Locks down the incremental machinery's contract: a cell answered by the
placement-keyed result memo (:mod:`repro.experiments.memo`) or by the
incremental placement search is bit-for-bit the cell a from-scratch run
would produce, on every metric, through every entry point.
``tests/speculation/test_differential.py`` is the Hypothesis property
suite (run derandomized in CI); the unit and suite-level files need no
test extras.
"""

"""A frozen copy of selfonn_kit, the benchmark's speed reference.

`ops`, `model`, `training`, `data`, `synth` and `metrics` are the package's
modules verbatim as of commit f3c8970, the commit the benchmark was written
against (`cli` is left out: the benchmark takes only its seed helpers, from
the package under test). The benchmark runs the same work on this copy,
interleaved with the package under test, to measure how fast the host runs
fixed code at that moment. Do not edit these files: any change to them moves
every timing the benchmark reports.
"""

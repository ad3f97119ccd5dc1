"""Measurement harness for evoroute: workload generators, layer probes,
the per-operation correctness gate and the statistics the report uses."""

"""Equation-defined programs: admissibility checks, random testing,
equational and inductive proofs, step counting, circuits, and
mapreduce jobs written in the same small language.

The package re-exports nothing: import names from their modules
(``from eqthink.syntax import parse_term``), so importing one module
loads only what it uses.
"""

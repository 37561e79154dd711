"""End-to-end flows tying the library together.

* :mod:`repro.flow.system_netlist` -- flatten an SOC into one gate
  netlist (original, HSCAN'd, or full-scanned cores).
* :mod:`repro.flow.profile` -- the one flow driver: the paper's whole
  evaluation of one system (ATPG, the design space and its named
  points, optimization, schedules, the FSCAN-BSCAN baseline, the
  Table 2 and Table 3 rows), timed and attributed, returned as one
  ledger record that ``repro profile`` renders.
* :mod:`repro.flow.report` -- the paper's table rows and their text
  tables, and ``repro profile``'s run report of one pipeline record,
  those tables included.
* :mod:`repro.flow.interconnect` -- which chip wires a plan's deliveries
  and observations ride.

The package re-exports nothing: each caller imports the submodule it
uses, so flattening a chip loads no report or ledger code.
"""

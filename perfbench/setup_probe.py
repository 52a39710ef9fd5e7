"""Set-up probe: import tabalg, then parse and build every given input.

Usage: ``python perfbench/setup_probe.py KIND:URI...`` where KIND is
``full`` (a complete algebra, parsed and built as ``TableAlgebra``) or
``partial`` (a deduction seed), and URI a path or ``bundled:NAME``.
The benchmark times this process from spawn to exit.
"""

import sys

from tabalg.bundled import resolve, resolve_partial

for arg in sys.argv[1:]:
    kind, uri = arg.split(":", 1)
    (resolve if kind == "full" else resolve_partial)(uri)

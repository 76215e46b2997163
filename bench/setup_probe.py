"""Set-up time in a fresh interpreter: importing sclsat, plus the program
calls a workload makes before its first timed op.  Imports nothing else
first, so the figure includes every module sclsat pulls in.

    python3 bench/setup_probe.py sweep|cnf|cli   (run from the repository root)
"""

import sys
from time import perf_counter

start = perf_counter()
import sclsat  # noqa: E402

imported = perf_counter()
if sys.argv[1] == "cli":
    import sclsat.cli  # noqa: E402,F401
elif sys.argv[1] == "sweep":
    list(sclsat.enumerate_formulas(["a", "b"], 7))
done = perf_counter()
print(f'{{"import_s": {imported - start!r}, "setup_s": {done - start!r}}}')

"""Set-up probe: import vortexlab, load and validate a config (which builds
the BoxGrid tables), build the noise model, then record the time.

    python3 perfbench/setup_probe.py CONFIG DONE_FILE SPAWNED

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
interpreter; DONE_FILE receives the seconds from then until the noise model
exists.
"""

import sys
import time

from vortexlab.harness import load_config, make_noise

make_noise(load_config(sys.argv[1]))
done = time.perf_counter()
with open(sys.argv[2], "w") as fh:
    fh.write(repr(done - float(sys.argv[3])))

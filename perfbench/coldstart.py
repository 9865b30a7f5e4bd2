"""Cold start of a benchmark process: pin BLAS, import bec, build every
model, triple and condition, then print `ready`.  run.py times this from
process launch to that line as setup_s.  The process then prints its speed
factor (see speed.py), by which run.py scales that time."""

import env

bec = env.import_bec()
import jobs  # noqa: E402

jobs.build_jobs(bec)
print("ready", flush=True)

from speed import SpeedProbe  # noqa: E402

print(SpeedProbe().speed_factor(), flush=True)

"""Set-up probe: import treeldp, make one warm-up call per module, then
print "ready".  run.py times a fresh interpreter from launch to that line."""

import workloads

workloads.warm_up()
print("ready", flush=True)

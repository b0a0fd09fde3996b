"""Worker heartbeats: how the pool tells *stuck* from *slow* from *dead*.

Each worker attempt writes ``heartbeat.json`` into its run directory on
the same cadence as its checkpoint checks (once per simulation slice):
its pid, attempt number, and — critically — the current **simulated**
time.  The pool's liveness monitor folds that into three verdicts:

* **dead** — the process is gone (``poll()`` returned); no heartbeat
  needed to see it.
* **stuck** — the process is alive but simulated time has not advanced
  for ``stuck_after_s`` of wall time: a wedged run (infinite spin, lost
  wakeup) that will never finish.  Killed and *migrated* to another
  worker slot from its last checkpoint.
* **slow** — simulated time is advancing but the attempt blew past its
  wall-clock deadline: the run is healthy but too big for the budget.
  Killed and retried (the retry resumes from the latest checkpoint, so
  the paid-for progress is kept).

Heartbeats are advisory (atomic replace, no fsync): losing one delays a
verdict by a poll interval, it never corrupts state.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.checkpoint.durable import atomic_replace

#: Liveness verdicts recorded in the journal and metrics.
LIVE = "live"
STUCK = "stuck"
SLOW = "slow"
DEAD = "dead"

HEARTBEAT_FILENAME = "heartbeat.json"


def heartbeat_path(run_dir: str) -> str:
    return os.path.join(run_dir, HEARTBEAT_FILENAME)


def write_heartbeat(
    path: str, pid: int, attempt: int, sim_time_s: Optional[float]
) -> None:
    """Atomically replace the heartbeat file (no fsync — advisory)."""
    payload = {"pid": pid, "attempt": attempt, "sim_time_s": sim_time_s}
    atomic_replace(path, json.dumps(payload).encode(), sync=False)


def read_heartbeat(path: str) -> Optional[dict]:
    """Read a heartbeat; missing or torn files read as ``None``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, ValueError):
        return None

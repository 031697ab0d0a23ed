"""Self-healing supervision (detect -> diagnose -> repair).

The node-management engineering object the RM-ODP engineering language
models: a phi-accrual failure detector fed by heartbeat streams computed
from the fault plan, and a supervisor that repairs groups (revive /
replace with state transfer) and checkpointed singletons (recovery at
an alternate location) from observed silence alone.
"""

from repro.heal.detector import PhiAccrualDetector
from repro.heal.heartbeat import HeartbeatMonitor
from repro.heal.supervisor import Supervisor

__all__ = ["PhiAccrualDetector", "HeartbeatMonitor", "Supervisor"]

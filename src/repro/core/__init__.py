"""P-SMR core: the paper's primary contribution (section IV).

This package contains the runtime-agnostic pieces of Parallel State-Machine
Replication:

* the command model (:mod:`repro.core.command`);
* command signatures and routing declarations
  (:mod:`repro.core.descriptor`);
* the command-dependency structure C-Dep (:mod:`repro.core.cdep`);
* the Command-to-Groups function C-G compiled from C-Dep and the
  multiprogramming level (:mod:`repro.core.cg`);
* the worker-thread execution-mode logic — parallel vs. synchronous mode
  with barriers (:mod:`repro.core.protocol`).

The simulation runtime (:mod:`repro.replication.psmr`) and the threaded
runtime (:mod:`repro.runtime`) both build their client/server proxies on top
of these pieces.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "BATCH": "repro.core.command",
    "Command": "repro.core.command",
    "Response": "repro.core.command",
    "CommandDescriptor": "repro.core.descriptor",
    "Serial": "repro.core.descriptor",
    "Keyed": "repro.core.descriptor",
    "Free": "repro.core.descriptor",
    "ServiceSpec": "repro.core.descriptor",
    "CDep": "repro.core.cdep",
    "CGFunction": "repro.core.cg",
    "ExecutionPlan": "repro.core.protocol",
    "plan_execution": "repro.core.protocol",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

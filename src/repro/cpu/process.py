"""Process model.

A process is the unit of isolation the attack crosses: victim and spy are
distinct processes sharing a physical core (paper §3's co-residency
assumption).  A process carries

* an identity (``pid``/``name``) used to key per-process performance
  counters and mitigation state,
* a code *load base*, so ASLR (paper §9.2) can relocate its branches,
* an ``enclave`` flag marking SGX-protected processes (paper §9), and
* a set of ``protected_branches`` for the §10.2 "remove prediction for
  sensitive branches" mitigation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Set

__all__ = ["Process"]

_pid_counter = itertools.count(1)


@dataclass(eq=False)
class Process:
    """One schedulable software entity."""

    name: str
    #: Virtual address the process's code is loaded at.  Branch addresses
    #: used with :meth:`branch_address` are link-time offsets relocated by
    #: this base, so enabling ASLR is just randomising it.
    load_base: int = 0x400000
    #: Link-time base the offsets in the binary are expressed against.
    link_base: int = 0x400000
    #: Whether the process runs inside an SGX enclave (paper §9).
    enclave: bool = False
    #: Virtual addresses of branches the §10.2 "no prediction for
    #: sensitive branches" mitigation protects.
    protected_branches: Set[int] = field(default_factory=set)
    pid: int = field(default_factory=lambda: next(_pid_counter))

    def branch_address(self, link_address: int) -> int:
        """Run-time virtual address of a branch linked at ``link_address``."""
        return link_address - self.link_base + self.load_base

    def protect_branch(self, address: int) -> None:
        """Mark the branch at run-time ``address`` as prediction-protected."""
        self.protected_branches.add(int(address))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "enclave" if self.enclave else "process"
        return f"<{kind} {self.name!r} pid={self.pid} base={self.load_base:#x}>"

    def __hash__(self) -> int:
        return hash(self.pid)

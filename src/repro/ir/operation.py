"""Operations: the atomic units the scheduler places into cycles.

An :class:`Operation` corresponds to one slot of a VLIW instruction word: an
integer/floating-point/memory/branch operation, or an inter-cluster copy
inserted by the scheduler.  Operations are identified by a small integer id
that is unique within a superblock; the lexicographic order used by the
scheduling graph (Section 3.1 of the paper) is the order of these ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


class OpClass(enum.Enum):
    """Functional-unit class of an operation.

    The paper's machine model gives every cluster one functional unit of each
    of the four classes (int, fp, mem, branch); inter-cluster copies are a
    fifth class that occupies the bus rather than a functional unit.
    """

    INT = "int"
    FP = "fp"
    MEM = "mem"
    BRANCH = "branch"
    COPY = "copy"

    # Identity hash (C slot): enum.Enum.__hash__ is a Python-level call and
    # OpClass keys sit on the hottest dict paths of the deduction engine.
    # Consistent with the default identity __eq__; dict iteration order is
    # insertion order, so no observable behaviour depends on hash values.
    __hash__ = object.__hash__

    @property
    def is_branch(self) -> bool:
        return self is OpClass.BRANCH

    @property
    def is_copy(self) -> bool:
        return self is OpClass.COPY

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default latencies per operation class.  These follow the paper's running
#: example (2-cycle non-branch operations, 3-cycle branches) for INT/BRANCH
#: and common VLIW DSP figures for the rest.  Individual operations may
#: override the class latency.
DEFAULT_LATENCIES = {
    OpClass.INT: 2,
    OpClass.FP: 3,
    OpClass.MEM: 3,
    OpClass.BRANCH: 3,
    OpClass.COPY: 1,
}


def default_latency(op_class: OpClass) -> int:
    """Return the default latency for *op_class*."""
    return DEFAULT_LATENCIES[op_class]


@dataclass(frozen=True)
class Operation:
    """A single operation of a superblock.

    Parameters
    ----------
    op_id:
        Identifier, unique within the superblock.  Also defines the
        lexicographic order used to orient scheduling-graph combinations.
    opcode:
        Mnemonic; purely informational.
    op_class:
        Functional-unit class.
    latency:
        Number of cycles between issue and availability of the result.  For
        exits it is also the completion latency used by the AWCT metric.
    dests / srcs:
        Virtual register names defined and used by the operation.
    is_exit:
        True for operations that may leave the superblock (branches and the
        final jump).
    exit_prob:
        Probability that this exit is taken, conditioned on reaching the
        superblock entry.  Only meaningful when ``is_exit`` is true.
    speculative:
        Whether the operation may be hoisted above earlier branches.  The
        superblock builder uses this to decide whether to add a control
        dependence from the preceding exit.
    """

    op_id: int
    opcode: str
    op_class: OpClass
    latency: int
    dests: Tuple[str, ...] = ()
    srcs: Tuple[str, ...] = ()
    is_exit: bool = False
    exit_prob: float = 0.0
    speculative: bool = True
    comment: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # One representation per probability: an exit given as ``1`` and
        # one given as ``1.0`` are the same block, with one wire form and
        # therefore one result-cache key.
        object.__setattr__(self, "exit_prob", float(self.exit_prob))
        if self.latency < 1:
            raise ValueError(f"operation {self.op_id} has latency {self.latency} < 1")
        if self.is_exit and not (0.0 <= self.exit_prob <= 1.0):
            raise ValueError(
                f"exit {self.op_id} has probability {self.exit_prob} outside [0, 1]"
            )
        if self.is_exit and self.op_class is not OpClass.BRANCH:
            raise ValueError(f"exit operation {self.op_id} must be a branch")
        if self.op_class is OpClass.COPY and len(self.srcs) != 1:
            raise ValueError("copy operations read exactly one value")

    @property
    def is_branch(self) -> bool:
        return self.op_class.is_branch

    @property
    def is_copy(self) -> bool:
        return self.op_class.is_copy

    @property
    def name(self) -> str:
        """Short printable name, e.g. ``B3`` for a branch with id 3."""
        prefix = {
            OpClass.BRANCH: "B",
            OpClass.COPY: "C",
            OpClass.MEM: "M",
            OpClass.FP: "F",
            OpClass.INT: "I",
        }[self.op_class]
        return f"{prefix}{self.op_id}"

    def with_id(self, op_id: int) -> "Operation":
        """Return a copy of this operation with a different id."""
        return replace(self, op_id=op_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dsts = ", ".join(self.dests)
        srcs = ", ".join(self.srcs)
        exit_part = f" exit(p={self.exit_prob:.2f})" if self.is_exit else ""
        return f"{self.name}: {self.opcode} [{dsts}] <- [{srcs}] lat={self.latency}{exit_part}"


def make_copy(op_id: int, value: str, dest: Optional[str] = None, latency: int = 1) -> Operation:
    """Create an inter-cluster copy operation for *value*.

    The copy reads *value* in the producer's cluster and defines *dest*
    (``value + "'"`` by default) in the consumer's cluster.
    """
    return Operation(
        op_id=op_id,
        opcode="copy",
        op_class=OpClass.COPY,
        latency=latency,
        dests=(dest if dest is not None else value + "'",),
        srcs=(value,),
    )

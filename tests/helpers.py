"""Shared test fixtures: small hand-built superblocks and machines."""

from __future__ import annotations

import random

from repro.api import block_from_dict, block_to_dict
from repro.ir import OpClass, SuperblockBuilder
from repro.ir.superblock import Superblock


def linear_chain_block(length: int = 4, latency: int = 2, name: str = "chain") -> Superblock:
    """op0 -> op1 -> ... -> exit, a single dependence chain."""
    builder = SuperblockBuilder(name)
    previous = None
    for i in range(length):
        value = f"v{i}"
        srcs = [previous] if previous is not None else []
        builder.add_op("add", OpClass.INT, dests=[value], srcs=srcs, latency=latency)
        previous = value
    builder.add_exit(probability=1.0, srcs=[previous], latency=1)
    return builder.build(execution_count=10)


def wide_block(width: int = 4, latency: int = 1, name: str = "wide") -> Superblock:
    """*width* independent operations feeding one reduction and an exit."""
    builder = SuperblockBuilder(name)
    produced = []
    for i in range(width):
        value = f"v{i}"
        builder.add_op("add", OpClass.INT, dests=[value], srcs=[f"in{i}"], latency=latency)
        produced.append(value)
    builder.add_op("add", OpClass.INT, dests=["sum"], srcs=produced[:2], latency=latency)
    builder.add_exit(probability=1.0, srcs=["sum"], latency=1)
    return builder.build(execution_count=5)


def two_exit_block(name: str = "twoexit") -> Superblock:
    """A block with an early (0.4) and a final (0.6) exit."""
    builder = SuperblockBuilder(name)
    builder.add_op("load", OpClass.MEM, dests=["a"], srcs=["p"], latency=2)
    builder.add_op("add", OpClass.INT, dests=["b"], srcs=["a"], latency=1)
    builder.add_exit(probability=0.4, srcs=["b"], latency=1)
    builder.add_op("mul", OpClass.INT, dests=["c"], srcs=["b"], latency=2, speculative=False)
    builder.add_op("sub", OpClass.INT, dests=["d"], srcs=["c"], latency=1)
    builder.add_exit(probability=0.6, srcs=["d"], latency=1)
    return builder.build(execution_count=20)


def edge_order_twin(block: Superblock, seed: int) -> Superblock:
    """*block* rebuilt through its wire form with the edges added in a
    shuffled order: the same operations and edges, but other adjacency
    iteration orders, which the deduction engine's ``dp_work`` (and the
    schedule it finds) can depend on."""
    wire = block_to_dict(block)
    edges = list(wire["edges"])
    random.Random(seed).shuffle(edges)
    return block_from_dict({**wire, "edges": edges})

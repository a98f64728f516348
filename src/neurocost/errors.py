"""Exception types shared across the package.

Everything raised on bad user input derives from NeurocostError so the CLI
can map it to a single exit code; internal consistency failures get their
own branch (MismatchDetected) because they signal a bug, not bad input.
`check_count` is the shared check of count-valued settings; no module
tests a count by hand.
"""

from __future__ import annotations

import operator
from contextlib import suppress


class NeurocostError(Exception):
    """Base class for all package-specific errors."""


def check_count(name: str, value: object, minimum: int = 1) -> int:
    """`value` as a Python int; ValueError unless it is an integer, Python's
    or numpy's (a bool is not), and >= minimum."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            if (count := operator.index(value)) >= minimum:
                return count
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


# graph construction and validation


class GraphError(NeurocostError):
    pass


class EmptyGraph(GraphError):
    pass


class DuplicateNodeId(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"duplicate node id: {node_id!r}")
        self.node_id = node_id


class CycleDetected(GraphError):
    def __init__(self, node_id: str):
        super().__init__(f"cycle through node {node_id!r}")
        self.node_id = node_id


class DanglingReference(GraphError):
    def __init__(self, missing_id: str):
        super().__init__(f"reference to unknown node id: {missing_id!r}")
        self.missing_id = missing_id


class StitchingMismatch(GraphError):
    pass


# lowering


class NoRuleForOpKind(NeurocostError):
    def __init__(self, op_kind: str):
        super().__init__(f"no lowering rule for op kind {op_kind!r}")
        self.op_kind = op_kind


class FanInExceedsRule(NeurocostError):
    pass


class InconsistentAssembly(NeurocostError):
    pass


# analytic cost models


class FiringRateOutOfRange(NeurocostError):
    def __init__(self, f_t: float):
        super().__init__(f"firing rate {f_t} outside [0, 1]")
        self.f_t = f_t


# simulation


class NonFiniteInput(NeurocostError):
    pass


class NonFiniteState(NeurocostError):
    pass


class UnknownInputNeuron(NeurocostError):
    def __init__(self, neuron_id: str):
        super().__init__(f"external input targets unknown input neuron {neuron_id!r}")
        self.neuron_id = neuron_id


class MismatchDetected(NeurocostError):
    """Recorded energy disagrees with its recomputation from event counts."""


# isomorphic partitioning


class FragmentTooLarge(NeurocostError):
    pass


class GraphTooLargeForOracle(NeurocostError):
    pass


# workloads


class DegenerateMesh(NeurocostError):
    pass


# file formats and configuration


class FileSyntaxError(NeurocostError):
    """Unparseable input text; names its file and 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 source: str | None = None):
        loc = "" if source is None else f" in {source}"
        if line is not None:
            loc += f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(NeurocostError):
    """Structurally invalid input; names the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{message} (field: {field})")
        self.field = field


class UnknownKey(NeurocostError):
    def __init__(self, key: str, source: str | None = None):
        super().__init__(f"unknown configuration key {key!r}"
                         + ("" if source is None else f" in {source}"))
        self.key = key


class UnknownPreset(NeurocostError):
    def __init__(self, name: str):
        super().__init__(f"unknown constants preset {name!r}")
        self.name = name


class PresetCycle(NeurocostError):
    """Custom presets whose bases lead back to one of them; `chain` names them."""

    def __init__(self, chain: tuple[str, ...]):
        super().__init__("preset cycle: " + " -> ".join(map(repr, chain)))
        self.chain = chain

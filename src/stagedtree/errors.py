"""Exception hierarchy shared across the package, and the JSON parse that raises it."""

import json


class StagedTreeError(ValueError):
    """Base class for all validation errors raised by this package."""


# tree construction
class VertexWithOneChild(StagedTreeError):
    pass


class StageOutDegreeMismatch(StagedTreeError):
    pass


class CycleDetected(StagedTreeError):
    pass


class DownwardEdgeInconsistentWithinStage(StagedTreeError):
    pass


# tree operations
class IndexOutOfRange(StagedTreeError):
    pass


class ZeroMass(StagedTreeError):
    pass


class NontrivialStaging(StagedTreeError):
    pass


# Bayesian-network bridge
class OrderInconsistentWithDAG(StagedTreeError):
    pass


# data ingestion and fitting
class UnknownCategory(StagedTreeError):
    pass


class RowDoesNotReachLeaf(StagedTreeError):
    pass


class ZeroStageTraffic(StagedTreeError):
    pass


def int_text(n: int) -> str:
    """A non-negative ``n`` in decimal, up to the 4300 digits that ``str`` writes."""
    return str(n) if n < 10**4300 else "10**4300 or more"


def loads(text: str):
    """``json.loads``, typing its errors on over-long integers and over-deep nesting."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise StagedTreeError(f"JSON input: {exc}") from None

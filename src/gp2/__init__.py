"""Interpreter and analysis toolkit for the GP 2 graph programming language."""

from .executor import (
    Budget,
    Engine,
    ResultSet,
    RunOutcome,
    equivalent,
    run_one,
    semantics,
)
from .graphs import Edge, GraphError, HostGraph, HostLabel, isomorphic
from .labels import EvalError
from .parsing import ParseError, parse_host_graph, parse_program
from .program import CheckedProgram, CheckError, check_program, checked
from .rules import ConditionalRuleSchema

__all__ = [
    "Budget",
    "CheckError",
    "CheckedProgram",
    "ConditionalRuleSchema",
    "Edge",
    "Engine",
    "EvalError",
    "GraphError",
    "HostGraph",
    "HostLabel",
    "ParseError",
    "ResultSet",
    "RunOutcome",
    "check_program",
    "checked",
    "equivalent",
    "isomorphic",
    "parse_host_graph",
    "parse_program",
    "run_one",
    "semantics",
]

__version__ = "0.1.0"

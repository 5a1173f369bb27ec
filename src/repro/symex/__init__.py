"""Selective symbolic execution engine (the reproduction's KLEE analog).

Executes DBT-produced IR over symbolic expressions: driver code runs
symbolically (forking at branches on symbolic conditions), while the OS
simulator and everything else stays concrete.  Hardware reads return fresh
symbols (symbolic hardware), and values crossing back to the OS are
concretized -- the two selection mechanisms of the paper's *selective
symbolic execution* (section 3.1).
"""

from repro.symex.expr import (
    BoolExpr,
    Expr,
    bv_and,
    bv_add,
    bv_concat,
    bv_extract,
    bv_not,
    bv_or,
    bv_sym,
    bv_xor,
    is_concrete,
)
from repro.symex.solver import Solver
from repro.symex.memory import SymMemory
from repro.symex.state import PathStatus, SymState
from repro.symex.executor import HardwarePolicy, StepEvent, SymExecutor

__all__ = [
    "BoolExpr",
    "Expr",
    "bv_and",
    "bv_add",
    "bv_concat",
    "bv_extract",
    "bv_not",
    "bv_or",
    "bv_sym",
    "bv_xor",
    "is_concrete",
    "Solver",
    "SymMemory",
    "PathStatus",
    "SymState",
    "HardwarePolicy",
    "StepEvent",
    "SymExecutor",
]

"""Intermediate representation (the reproduction's LLVM-bitcode analog).

The dynamic binary translator lowers R32 machine code into this IR one
*translation block* at a time; the IR is what the wiretap records in traces,
what the symbolic engine executes, and what the synthesizer converts to C.
Guest CPU registers are accessed through explicit ``GetReg``/``SetReg`` ops
(mirroring QEMU's CPU-state accesses in its TCG/LLVM output), and every
memory or port access is an explicit op so the wiretap can classify it.
"""

from repro.ir.nodes import (
    BinKind,
    CmpKind,
    IrBin,
    IrCall,
    IrCmp,
    IrCondJump,
    IrConst,
    IrGetReg,
    IrHalt,
    IrIn,
    IrJump,
    IrLoad,
    IrNeg,
    IrNot,
    IrOut,
    IrRet,
    IrSetReg,
    IrStore,
    TERMINATOR_TYPES,
    TranslationBlock,
)
from repro.ir.printer import format_block, format_op
from repro.ir.interp import IrEnv, run_block
from repro.ir.compile import (block_source, compile_block, compile_source,
                              exec_counters)
from repro.ir.superblock import (Superblock, SuperblockConfig,
                                 SuperblockManager, superblock_counters,
                                 superblock_source, superblocks_enabled)
from repro.ir.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledBackend,
    ExecutionBackend,
    InterpBackend,
    get_backend,
)

__all__ = [
    "BinKind",
    "CmpKind",
    "IrBin",
    "IrCall",
    "IrCmp",
    "IrCondJump",
    "IrConst",
    "IrGetReg",
    "IrHalt",
    "IrIn",
    "IrJump",
    "IrLoad",
    "IrNeg",
    "IrNot",
    "IrOut",
    "IrRet",
    "IrSetReg",
    "IrStore",
    "TERMINATOR_TYPES",
    "TranslationBlock",
    "format_block",
    "format_op",
    "IrEnv",
    "run_block",
    "block_source",
    "compile_block",
    "compile_source",
    "exec_counters",
    "Superblock",
    "SuperblockConfig",
    "SuperblockManager",
    "superblock_counters",
    "superblock_source",
    "superblocks_enabled",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CompiledBackend",
    "ExecutionBackend",
    "InterpBackend",
    "get_backend",
]

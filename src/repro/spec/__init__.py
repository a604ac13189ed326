"""Executable formal ISA specification for RV32IM (+ extensions).

The Python analogue of LibRISCV: instruction behaviour is described
once, abstractly, in a two-layer DSL —

* :mod:`repro.spec.expr` — pure arithmetic/logic expressions over
  abstract operands,
* :mod:`repro.spec.primitives` — stateful primitives (register file,
  memory, PC, control flow, environment calls),

and *modular interpreters* give the primitives meaning.  Encodings come
from riscv-opcodes style ``(mask, match)`` tables
(:mod:`repro.spec.opcodes`) from which the decoder is derived
(:mod:`repro.spec.decoder`).  :mod:`repro.spec.isa` composes base ISA
and extensions; :mod:`repro.spec.zimadd` is the paper's Sect. IV custom
instruction case study.  :mod:`repro.spec.staged` partially evaluates
the specification into cached per-instruction executors (PR 3) without
changing the DSL the semantics are written in.
"""

from . import expr, fields, primitives
from .decoder import DecodedInstruction, Decoder, IllegalInstruction
from .dsl import Handler, execute_semantics
from .staged import CompiledPlan, Plan, bind_plan, record_plan
from .isa import ISA, Extension, rv32i, rv32im, rv32im_zbb, rv32im_zimadd
from .opcodes import (
    RV32I_ENCODINGS,
    RV32M_ENCODINGS,
    Encoding,
    encoding_from_yaml,
    encodings_from_yaml,
)

__all__ = [
    "expr",
    "fields",
    "primitives",
    "Decoder",
    "DecodedInstruction",
    "IllegalInstruction",
    "Handler",
    "execute_semantics",
    "Plan",
    "CompiledPlan",
    "record_plan",
    "bind_plan",
    "ISA",
    "Extension",
    "rv32i",
    "rv32im",
    "rv32im_zbb",
    "rv32im_zimadd",
    "Encoding",
    "RV32I_ENCODINGS",
    "RV32M_ENCODINGS",
    "encoding_from_yaml",
    "encodings_from_yaml",
]

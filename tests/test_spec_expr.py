"""Tests for the specification expression DSL and its evaluation."""

import pytest

from repro.concrete.interpreter import IntDomain
from repro.spec import expr as E
from repro.spec import primitives as P
from repro.spec.expr import (
    Add,
    And,
    AShr,
    BinOp,
    EqInt,
    Expr,
    Ext,
    Extract,
    Imm,
    Ite,
    SlotRef,
    UnOp,
    LShr,
    Mul,
    Neg,
    Not,
    SDiv,
    SGe,
    SGt,
    Shl,
    SLe,
    SLt,
    Sub,
    UDiv,
    UGe,
    UGt,
    ULe,
    ULt,
    URem,
    SRem,
    Or,
    Val,
    Xor,
    eval_expr,
    extract,
    extract32,
    imm,
    ite,
    sext,
    sext_to,
    zext,
    zext_to,
)


def evaluate(expr):
    return eval_expr(expr, IntDomain())


class TestConstruction:
    def test_imm_truncates(self):
        assert imm(-1).value == 0xFFFFFFFF
        assert imm(0x1FF, width=8).value == 0xFF

    def test_binop_width_propagates(self):
        term = Add(imm(1), imm(2))
        assert term.width == 32

    def test_width_mismatch_rejected(self):
        with pytest.raises(TypeError):
            Add(imm(1, 32), imm(1, 8))

    def test_comparison_has_width_one(self):
        assert EqInt(imm(1), imm(1)).width == 1
        assert ULt(imm(1), imm(2)).width == 1

    def test_ext_widths(self):
        assert sext(imm(1, 8), 24).width == 32
        assert zext(imm(1, 8), 8).width == 16
        assert sext_to(imm(1, 8), 32).width == 32
        assert zext_to(imm(1, 32), 32) is not None  # no-op allowed

    def test_ext_shrink_rejected(self):
        with pytest.raises(TypeError):
            sext_to(imm(1, 32), 8)

    def test_extract_bounds(self):
        assert extract(imm(0xFF, 32), 7, 0).width == 8
        with pytest.raises(TypeError):
            extract(imm(0, 8), 8, 0)

    def test_extract32_helper(self):
        term = extract32(0, imm(5, 64))
        assert term.width == 32

    def test_ite_checks(self):
        cond = EqInt(imm(1), imm(1))
        assert ite(cond, imm(1), imm(2)).width == 32
        with pytest.raises(TypeError):
            ite(cond, imm(1, 8), imm(1, 16))
        with pytest.raises(TypeError):
            ite(imm(1, 32), imm(1), imm(2))


class TestEvaluation:
    def test_arith(self):
        assert evaluate(Add(imm(7), imm(8))) == 15
        assert evaluate(Sub(imm(3), imm(5))) == 0xFFFFFFFE
        assert evaluate(Mul(imm(0x10000), imm(0x10000))) == 0

    def test_division(self):
        assert evaluate(UDiv(imm(10), imm(3))) == 3
        assert evaluate(UDiv(imm(10), imm(0))) == 0xFFFFFFFF  # SMT-LIB
        assert evaluate(SDiv(imm(-10 & 0xFFFFFFFF), imm(3))) == (-3) & 0xFFFFFFFF
        assert evaluate(URem(imm(10), imm(3))) == 1
        assert evaluate(SRem(imm((-10) & 0xFFFFFFFF), imm(3))) == (-1) & 0xFFFFFFFF

    def test_logic(self):
        assert evaluate(And(imm(0b1100), imm(0b1010))) == 0b1000
        assert evaluate(Or(imm(0b1100), imm(0b1010))) == 0b1110
        assert evaluate(Xor(imm(0b1100), imm(0b1010))) == 0b0110
        assert evaluate(Not(imm(0))) == 0xFFFFFFFF
        assert evaluate(Neg(imm(1))) == 0xFFFFFFFF

    def test_shifts(self):
        assert evaluate(Shl(imm(1), imm(4))) == 16
        assert evaluate(LShr(imm(0x80000000), imm(31))) == 1
        assert evaluate(AShr(imm(0x80000000), imm(31))) == 0xFFFFFFFF

    def test_comparisons(self):
        assert evaluate(ULt(imm(1), imm(2))) == 1
        assert evaluate(ULe(imm(2), imm(2))) == 1
        assert evaluate(UGt(imm(1), imm(2))) == 0
        assert evaluate(UGe(imm(2), imm(2))) == 1
        # signed: 0xffffffff is -1
        assert evaluate(SLt(imm(0xFFFFFFFF), imm(0))) == 1
        assert evaluate(SLe(imm(0), imm(0))) == 1
        assert evaluate(SGt(imm(0), imm(0xFFFFFFFF))) == 1
        assert evaluate(SGe(imm(0xFFFFFFFF), imm(0))) == 0

    def test_extensions(self):
        assert evaluate(sext(imm(0x80, 8), 24)) == 0xFFFFFF80
        assert evaluate(zext(imm(0x80, 8), 24)) == 0x80
        assert evaluate(extract(imm(0xABCD, 32), 15, 8)) == 0xAB

    def test_ite(self):
        cond = EqInt(imm(1), imm(1))
        assert evaluate(ite(cond, imm(10), imm(20))) == 10
        cond = EqInt(imm(1), imm(2))
        assert evaluate(ite(cond, imm(10), imm(20))) == 20

    def test_val_leaf(self):
        assert evaluate(Add(Val(41, 32), imm(1))) == 42

    def test_64_bit_intermediate(self):
        # The MULH pattern: sext to 64, multiply, slice the top half.
        a = sext(Val(0xFFFFFFFF, 32), 32)  # -1
        b = sext(Val(2, 32), 32)
        product = Mul(a, b)
        assert product.width == 64
        assert evaluate(extract(product, 63, 32)) == 0xFFFFFFFF  # -2 >> 32

    def test_bad_expression_rejected(self):
        with pytest.raises(TypeError):
            eval_expr("not an expr", IntDomain())


def _samples():
    """Two equal but distinct instances' field values per value class:
    every ``Expr`` class and every primitive but ``RunIf``/``RunIfElse``.
    Each call builds new objects, so nested expressions are equal, not
    identical."""
    leaf, other = Imm(3, 32), SlotRef(1, 32)
    return {
        Val: (7, 32),
        Imm: (5, 32),
        SlotRef: (5, 32),
        BinOp: ("add", leaf, other, 32),
        UnOp: ("not", leaf, 32),
        Ext: ("sext", Imm(1, 8), 24, 32),
        Extract: (leaf, 7, 0, 8),
        Ite: (BinOp("eq", leaf, other, 1), leaf, other, 32),
        P.DecodeAndReadRType: (),
        P.DecodeAndReadR4Type: (),
        P.DecodeAndReadIType: (),
        P.DecodeAndReadShamt: (),
        P.DecodeAndReadSType: (),
        P.DecodeAndReadBType: (),
        P.DecodeUType: (),
        P.DecodeJType: (),
        P.ReadRegister: (5,),
        P.WriteRegister: (5, leaf),
        P.ReadPC: (),
        P.WritePC: (leaf,),
        P.LoadMem: (8, leaf),
        P.StoreMem: (8, leaf, other),
        P.Ecall: (),
        P.Ebreak: (),
        P.Fence: (),
    }


class TestValueSemantics:
    """Expressions and primitives are values: field-wise equality and
    hashing, classes kept apart, and identity hashes only for the two
    primitives that carry thunks."""

    def test_samples_cover_every_value_class(self):
        # From the modules' exports: ``__subclasses__`` may still list
        # the class a slotted dataclass replaced.
        classes = {
            value
            for module in (E, P)
            for value in map(module.__dict__.get, module.__all__)
            if isinstance(value, type) and value not in (Expr, P.Primitive)
            and issubclass(value, (Expr, P.Primitive))
        }
        assert set(_samples()) == classes - {P.RunIf, P.RunIfElse}

    @pytest.mark.parametrize("cls", list(_samples()), ids=lambda cls: cls.__name__)
    def test_equal_fields_equal_values(self, cls):
        first, second = cls(*_samples()[cls]), cls(*_samples()[cls])
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert not hasattr(first, "__dict__")  # slotted

    @pytest.mark.parametrize(
        "cls",
        [cls for cls, fields in _samples().items() if fields],
        ids=lambda cls: cls.__name__,
    )
    def test_a_different_field_makes_a_different_value(self, cls):
        fields = _samples()[cls]
        changed = (Imm(4, 32) if isinstance(fields[0], Expr) else 6, *fields[1:])
        assert cls(*fields) != cls(*changed)

    def test_equal_fields_of_different_classes_differ(self):
        assert Imm(5, 32) != SlotRef(5, 32)
        assert Val(5, 32) != Imm(5, 32)
        assert P.DecodeUType() != P.DecodeJType()
        assert P.ReadRegister(5) != P.ReadPC()

    @pytest.mark.parametrize("cls", [P.RunIf, P.RunIfElse], ids=lambda c: c.__name__)
    def test_run_if_hashes_by_identity(self, cls):
        def block():
            yield P.Fence()

        cond = EqInt(imm(1), imm(1))
        blocks = (block,) * (len(cls.__dataclass_fields__) - 1)
        first, second = cls(cond, *blocks), cls(cond, *blocks)
        assert hash(first) == id(first)
        assert hash(second) == id(second) != hash(first)

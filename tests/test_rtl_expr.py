"""Unit and property tests for the RTL expression AST."""

import pytest
from hypothesis import given, strategies as st

from repro._bits import mask, to_signed, truncate
from repro.errors import WidthError
from repro.rtl import (
    BinaryOp, Concat, Const, Mux, Ref, Repl, Slice, UnaryOp,
    cat, mux, reduce_and, reduce_or, reduce_xor,
)
from repro.rtl._codegen import _to_py


def c(value, width=8):
    return Const(value, width)


def r(name, width=8):
    return Ref(name, width)


class TestConst:
    def test_truncates_to_width(self):
        assert Const(0x1FF, 8).value == 0xFF

    def test_zero_width_rejected(self):
        with pytest.raises(WidthError):
            Const(1, 0)

    def test_eval_ignores_env(self):
        assert c(42).eval({}) == 42


class TestArithmetic:
    def test_add_wraps(self):
        expr = c(200) + c(100)
        assert expr.eval({}) == (300 & 0xFF)

    def test_sub_wraps(self):
        expr = c(1) - c(2)
        assert expr.eval({}) == 0xFF

    def test_mul_truncates(self):
        expr = c(16) * c(16)
        assert expr.eval({}) == 0

    def test_int_literal_coercion(self):
        expr = r("a") + 1
        assert expr.eval({"a": 5}) == 6

    def test_width_mismatch_rejected(self):
        with pytest.raises(WidthError):
            BinaryOp("+", c(1, 8), c(1, 4))

    def test_neg(self):
        assert UnaryOp("-", c(1)).eval({}) == 0xFF


class TestBitwise:
    def test_and_or_xor(self):
        assert (c(0b1100) & c(0b1010)).eval({}) == 0b1000
        assert (c(0b1100) | c(0b1010)).eval({}) == 0b1110
        assert (c(0b1100) ^ c(0b1010)).eval({}) == 0b0110

    def test_invert_masks(self):
        assert (~c(0, 4)).eval({}) == 0xF

    def test_shifts(self):
        assert (c(1) << 3).eval({}) == 8
        assert (c(8) >> 3).eval({}) == 1

    def test_oversized_shift_gives_zero(self):
        assert (c(1) << 9).eval({}) == 0
        assert (c(0x80) >> 9).eval({}) == 0

    def test_arithmetic_shift_preserves_sign(self):
        expr = BinaryOp(">>>", c(0x80), Const(2, 3))
        assert expr.eval({}) == 0xE0


class TestComparisons:
    def test_eq_ne(self):
        assert c(5).eq(5).eval({}) == 1
        assert c(5).ne(5).eval({}) == 0

    def test_unsigned_order(self):
        assert c(0xFF).gt(c(1)).eval({}) == 1

    def test_signed_order(self):
        # 0xFF is -1 signed, so it is less than 1.
        assert c(0xFF).slt(c(1)).eval({}) == 1
        assert c(0xFF).sgt(c(1)).eval({}) == 0

    def test_compare_width_is_one(self):
        assert c(5).eq(5).width == 1


class TestLogical:
    def test_and_or_not(self):
        t, f = Const(1, 1), Const(0, 1)
        assert t.logical_and(f).eval({}) == 0
        assert t.logical_or(f).eval({}) == 1
        assert t.logical_not().eval({}) == 0

    def test_requires_one_bit(self):
        with pytest.raises(WidthError):
            BinaryOp("&&", c(1, 8), c(1, 8))


class TestStructural:
    def test_slice(self):
        assert Slice(c(0b1101_0110), 5, 2).eval({}) == 0b0101

    def test_slice_out_of_range(self):
        with pytest.raises(WidthError):
            Slice(c(0), 8, 0)

    def test_getitem_sugar(self):
        expr = r("a")
        assert expr[7:4].eval({"a": 0xAB}) == 0xA
        assert expr[0].eval({"a": 1}) == 1

    def test_concat_order(self):
        # First part is most significant.
        expr = cat(Const(0xA, 4), Const(0xB, 4))
        assert expr.eval({}) == 0xAB
        assert expr.width == 8

    def test_repl(self):
        assert Repl(Const(0b10, 2), 3).eval({}) == 0b101010

    def test_mux(self):
        expr = mux(Ref("sel", 1), c(10), c(20))
        assert expr.eval({"sel": 1}) == 10
        assert expr.eval({"sel": 0}) == 20

    def test_mux_arm_width_mismatch(self):
        with pytest.raises(WidthError):
            Mux(Const(1, 1), c(1, 8), c(1, 4))


class TestReductions:
    def test_reduce_and(self):
        assert reduce_and(c(0xFF)).eval({}) == 1
        assert reduce_and(c(0xFE)).eval({}) == 0

    def test_reduce_or(self):
        assert reduce_or(c(0)).eval({}) == 0
        assert reduce_or(c(1)).eval({}) == 1

    def test_reduce_xor_parity(self):
        assert reduce_xor(c(0b0111)).eval({}) == 1
        assert reduce_xor(c(0b0110)).eval({}) == 0


class TestTreeUtilities:
    def test_signals_collects_refs(self):
        expr = (r("a") + r("b")).eq(r("c"))
        assert expr.signals() == {"a", "b", "c"}

    def test_substitute_renames(self):
        expr = r("a") + r("b")
        renamed = expr.substitute(lambda ref: Ref("x." + ref.name, ref.width))
        assert renamed.signals() == {"x.a", "x.b"}
        # Original is untouched (expressions are immutable values).
        assert expr.signals() == {"a", "b"}

    def test_substitute_identity_returns_same_object(self):
        expr = r("a") + r("b")
        assert expr.substitute(lambda ref: None) is expr

    def test_node_count(self):
        assert (r("a") + r("b")).node_count() == 3


# ---------------------------------------------------------------------------
# Property tests: compiled evaluation must match AST evaluation exactly.
# ---------------------------------------------------------------------------

_WIDTH = 8


@st.composite
def expr_trees(draw, depth=0):
    """Random well-formed expression trees over signals a, b (8-bit)."""
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["const", "a", "b"]))
        if leaf == "const":
            return Const(draw(st.integers(0, 255)), _WIDTH)
        return Ref(leaf, _WIDTH)
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "and", "or", "xor", "eq", "lt", "slt",
         "shl", "shr", "sra", "not", "neg", "rand", "ror", "rxor",
         "mux", "slice", "concat", "repl"]))
    a = draw(expr_trees(depth=depth + 1))
    if kind in ("not",):
        return ~a
    if kind == "neg":
        return UnaryOp("-", a)
    if kind in ("rand", "ror", "rxor"):
        fn = {"rand": reduce_and, "ror": reduce_or, "rxor": reduce_xor}[kind]
        return Concat((Const(0, _WIDTH - 1), fn(a)))
    if kind == "slice":
        high = draw(st.integers(0, a.width - 1))
        low = draw(st.integers(0, high))
        sliced = Slice(a, high, low)
        # Keep widths uniform so parents can combine results.
        pad = _WIDTH - sliced.width
        return Concat((Const(0, pad), sliced)) if pad else sliced
    if kind == "repl":
        return Slice(Repl(a, 2), _WIDTH - 1, 0)
    b = draw(expr_trees(depth=depth + 1))
    if kind == "concat":
        return Slice(Concat((a, b)), _WIDTH - 1, 0)
    if kind == "mux":
        sel = draw(expr_trees(depth=depth + 1))
        return Mux(sel.as_bool(), a, b)
    ops = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
           "xor": "^", "shl": "<<", "shr": ">>", "sra": ">>>"}
    cmp_ops = {"eq": "==", "lt": "<", "slt": "<s"}
    if kind in cmp_ops:
        bit = BinaryOp(cmp_ops[kind], a, b)
        return Concat((Const(0, _WIDTH - 1), bit))
    if kind in ("shl", "shr", "sra"):
        amount = Const(draw(st.integers(0, 9)), 4)
        return BinaryOp(ops[kind], a, amount)
    return BinaryOp(ops[kind], a, b)


@given(expr_trees(), st.integers(0, 255), st.integers(0, 255))
def test_compiled_eval_matches_ast_eval(expr, a, b):
    """The generated Python for every operator agrees with Expr.eval
    (signals read as locals, as in the fused kernels)."""
    env = {"a": a, "b": b}
    assert eval(_to_py(expr, str), {"min": min}, env) == expr.eval(env)


@given(expr_trees(), st.integers(0, 255), st.integers(0, 255))
def test_eval_stays_in_width(expr, a, b):
    env = {"a": a, "b": b}
    assert 0 <= expr.eval(env) <= mask(expr.width)


@given(st.integers(0, 255), st.integers(0, 255))
def test_signed_compare_matches_python(a, b):
    expr = BinaryOp("<s", Ref("a", 8), Ref("b", 8))
    expected = 1 if to_signed(a, 8) < to_signed(b, 8) else 0
    assert expr.eval({"a": a, "b": b}) == expected


@given(st.integers(-1000, 1000), st.integers(1, 16))
def test_truncate_roundtrip(value, width):
    assert truncate(truncate(value, width), width) == truncate(value, width)

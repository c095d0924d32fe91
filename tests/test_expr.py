"""Parsing, evaluation, differentiation, and the printer round trip."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsvar as tv
from tsvar.expr import Binary, Const, Unary, Var
from helpers import central_difference, random_expr_and_env

VARS = ("t", "x", "v", "z", "u", "lam")


class TestParse:
    def test_penalized_length_integrand_structure(self):
        e = tv.parse("sqrt(1+v^2)+1.0*(z-1)^2")
        assert e == Binary(
            "add",
            Unary("sqrt", Binary("add", Const(1.0), Binary("pow", Var("v"), Const(2.0)))),
            Binary(
                "mul",
                Const(1.0),
                Binary("pow", Binary("sub", Var("z"), Const(1.0)), Const(2.0)),
            ),
        )

    def test_single_variable(self):
        assert tv.parse("t") == Var("t")

    def test_hamiltonian_structure(self):
        e = tv.parse("u^2 + lam*(u + z*t)")
        assert e == Binary(
            "add",
            Binary("pow", Var("u"), Const(2.0)),
            Binary(
                "mul",
                Var("lam"),
                Binary("add", Var("u"), Binary("mul", Var("z"), Var("t"))),
            ),
        )

    def test_power_is_right_associative(self):
        assert tv.evaluate(tv.parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        # by the grammar, -v^2 is (-v)^2
        assert tv.parse("-v^2") == Binary("pow", Unary("neg", Var("v")), Const(2.0))
        assert tv.evaluate(tv.parse("-2^2"), {}) == 4.0
        assert tv.evaluate(tv.parse("-(2^2)"), {}) == -4.0

    def test_scientific_literals(self):
        assert tv.parse("1e-3") == Const(1e-3)
        assert tv.parse(".5 + 2.25e2") == Binary("add", Const(0.5), Const(225.0))

    def test_syntax_error_carries_position(self):
        with pytest.raises(tv.ParseError) as err:
            tv.parse("1 + * 2")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(tv.ParseError, match="beta"):
            tv.parse("beta*(z-1)^2")

    def test_unknown_function(self):
        with pytest.raises(tv.ParseError, match="tan"):
            tv.parse("tan(t)")

    def test_arity_mismatch(self):
        with pytest.raises(tv.ParseError, match="one argument"):
            tv.parse("sqrt(1, 2)")

    def test_dangling_operator(self):
        with pytest.raises(tv.ParseError):
            tv.parse("1 +")

    def test_unbalanced_parens(self):
        with pytest.raises(tv.ParseError):
            tv.parse("(1 + 2")


class TestEvaluate:
    def test_sqrt_at_zero_slope(self):
        assert tv.evaluate(tv.parse("sqrt(1+v^2)"), {"v": 0.0}) == 1.0

    def test_weighted_quadratic(self):
        e = tv.parse("2*t^2*(3*v-1)")
        assert tv.evaluate(e, {"t": 2.0, "v": 5 / 16}) == -0.5

    def test_square_at_zero(self):
        assert tv.evaluate(tv.parse("u^2"), {"u": 0.0}) == 0.0

    def test_unbound_variable(self):
        with pytest.raises(tv.EvalError, match="unbound"):
            tv.evaluate(tv.parse("x + v"), {"x": 1.0})

    def test_domain_error_names_subexpression(self):
        with pytest.raises(tv.EvalError, match=r"sqrt\(x - 2\)"):
            tv.evaluate(tv.parse("1 + sqrt(x-2)"), {"x": 0.0})

    def test_division_by_zero(self):
        with pytest.raises(tv.EvalError, match="1/x"):
            tv.evaluate(tv.parse("1/x"), {"x": 0.0})

    def test_log_of_nonpositive(self):
        with pytest.raises(tv.EvalError):
            tv.evaluate(tv.parse("log(t)"), {"t": 0.0})

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(tv.EvalError):
            tv.evaluate(tv.parse("x^0.5"), {"x": -2.0})

    def test_compiled_matches_interpreter(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            e, env = random_expr_and_env(rng)
            fn = tv.compile_fn(e)
            assert fn(**env) == pytest.approx(tv.evaluate(e, env), rel=1e-15, abs=1e-15)


class TestDiff:
    def test_slope_partial_of_length_integrand(self):
        d = tv.diff(tv.parse("sqrt(1+v^2)"), "v")
        # v / sqrt(1 + v^2), checked by value on a few points
        for v in (-1.5, 0.0, 0.3, 2.0):
            assert tv.evaluate(d, {"v": v}) == pytest.approx(
                v / math.sqrt(1 + v * v), rel=1e-14
            )

    def test_end_value_partial_of_penalty(self):
        d = tv.diff(tv.parse("1.0*(z-1)^2"), "z")
        for z in (0.0, 0.5, 2.0):
            assert tv.evaluate(d, {"z": z}) == pytest.approx(2 * (z - 1), rel=1e-14)

    def test_derivative_of_unrelated_variable_is_zero(self):
        assert tv.diff(tv.parse("t"), "v") == Const(0.0)

    def test_integer_power_rule_keeps_domain(self):
        d = tv.diff(tv.parse("v^3"), "v")
        assert tv.evaluate(d, {"v": -2.0}) == 12.0  # no log rewrite for constants

    def test_general_power_uses_log_form(self):
        d = tv.diff(tv.parse("x^v"), "v")
        x, v = 2.0, 1.5
        assert tv.evaluate(d, {"x": x, "v": v}) == pytest.approx(
            x**v * math.log(x), rel=1e-12
        )

    def test_constant_folding_drops_dead_branches(self):
        assert tv.diff(tv.parse("x + 0*v"), "x") == Const(1.0)
        assert tv.diff(tv.parse("sin(t)"), "x") == Const(0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        a=st.floats(-3, 3, allow_nan=False),
        wrt=st.sampled_from(VARS),
    )
    @example(seed=415, a=0.0, wrt="z")  # e2 was once drawn at another point
    def test_linearity(self, seed, a, wrt):
        rng = np.random.default_rng(seed)
        e1, env = random_expr_and_env(rng, max_depth=4)
        e2, _ = random_expr_and_env(rng, max_depth=4, env=env)
        combined = Binary("add", Binary("mul", Const(a), e1), e2)
        lhs = tv.evaluate(tv.diff(combined, wrt), env)
        rhs = a * tv.evaluate(tv.diff(e1, wrt), env) + tv.evaluate(tv.diff(e2, wrt), env)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_matches_finite_differences(self):
        # the full 1000-expression sweep lives in the acceptance suite
        rng = np.random.default_rng(11)
        for _ in range(100):
            e, env = random_expr_and_env(rng)
            for name in VARS:
                sym = tv.evaluate(tv.diff(e, name), env)
                fd = central_difference(e, env, name)
                if fd is None:
                    continue
                assert sym == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestPrinter:
    def test_round_trip_examples(self):
        for src in (
            "sqrt(1+v^2)+1.0*(z-1)^2",
            "u^2 + lam*(u + z*t)",
            "-(v^2) + -v^2",
            "t/(x*v)/z",
            "2^3^2",
            "x - (v - z) - u",
        ):
            e = tv.parse(src)
            assert tv.parse(tv.to_text(e)) == e

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            e, env = random_expr_and_env(rng)
            again = tv.parse(tv.to_text(e))
            assert again == e
            assert tv.evaluate(again, env) == tv.evaluate(e, env)

    def test_negative_constants_reparse_by_value(self):
        # the grammar has no negative literal token, so the tree comes back
        # as a negated positive constant; values must agree exactly
        e = Binary("mul", Const(-2.0), Var("x"))
        again = tv.parse(tv.to_text(e))
        assert tv.evaluate(again, {"x": 3.0}) == tv.evaluate(e, {"x": 3.0})


class TestHash:
    def test_hash_is_computed_once_per_node(self, monkeypatch):
        tree = Var("x")
        for k in range(300):
            tree = Binary("add", tree, Unary("cos", Const(float(k))))
        first = hash(tree)
        calls = []
        for cls in (Const, Var, Unary, Binary):
            def counted(self, original=cls.__hash__):
                calls.append(self)
                return original(self)
            monkeypatch.setattr(cls, "__hash__", counted)
        assert hash(tree) == first
        assert len(calls) == 1  # the root alone; its subtrees are not rehashed

    def test_equal_trees_hash_alike_after_pickling(self):
        import pickle

        e = tv.parse("sqrt(1 + v^2) + w*cos(x)", bound=["w"])
        hash(e)
        again = pickle.loads(pickle.dumps(e))
        assert again._hash is None  # the kept hash is this process's
        assert again == e and hash(again) == hash(e)


class TestSubstitute:
    def test_untouched_subtrees_are_kept(self):
        e = tv.parse("sqrt(1 + v^2) + w*cos(x)", bound=["w"])
        out = tv.substitute(e, "w", Const(2.0))
        assert out.left is e.left
        assert out.right.right is e.right.right
        assert tv.substitute(e, "lam", Const(1.0)) is e

    def test_rename_slope_to_control(self):
        e = tv.parse("sqrt(1+v^2) + v*t")
        renamed = tv.substitute(e, "v", Var("u"))
        assert "v" not in tv.variables(renamed)
        assert tv.evaluate(renamed, {"u": 0.7, "t": 2.0}) == tv.evaluate(
            e, {"v": 0.7, "t": 2.0}
        )

    def test_variables_listing(self):
        assert tv.variables(tv.parse("u^2 + lam*(u + z*t)")) == {"u", "lam", "z", "t"}

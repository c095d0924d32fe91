"""Parsing, evaluation, differentiation, compilation, and the printer round trip."""

import builtins
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsvar as tv
from tsvar.expr import Binary, Const, Unary, Var
from helpers import _random_tree, central_difference, random_expr_and_env, reference_compile_fn

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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _compile_corpus() -> list:
    """Trees whose kernels must keep the literal compiler's bits: constant-only
    subexpressions, fractional and negative constants, the benchmark's sweep
    integrands with their partials, and random trees."""
    texts = ["2*3*x", "-(0.5)*x", "exp(-1)*x", "1/3*u", "x^2.5", "x^(-1.5)", "2^x",
             "-3*x - 0.1*(-z)", "u^2 + exp(0.3*x) + x^2 + 2*(z - 1)^2", "0.5/(0*x)", "7"]
    corpus = [tv.parse(s) for s in texts]
    corpus += [Binary("mul", Const(-2.0), Var("x")), Binary("add", Const(-0.0), Var("u")),
               Binary("mul", Const(-0.0), Var("t")), Const(-1.25)]
    scale = tv.TimeScale.integer_range(0, 8)
    sweep_small = tv.ControlProblem.from_variational(tv.VariationalProblem(
        scale, tv.parse("sqrt(1 + v^2) + 2*(z - 1)^2 + 0.437*cos(x)"), 0.0))
    ctl_qgrid = tv.ControlProblem(scale, tv.parse("u^2 + 1.3*x^2 + 3*(z - 1)^2"),
                                  tv.parse("u - 0.5*x"), 0.0)
    for p in (sweep_small, ctl_qgrid):
        corpus += [p.f, p.g, *tv.problem.partials(p)]
    rng = np.random.default_rng(5)
    corpus += [_random_tree(rng, int(rng.integers(2, 6))) for _ in range(60)]
    return corpus


def _points(n: int = 48) -> dict:
    """Arguments with signed zeros, tiny and huge magnitudes and domain edges."""
    rng = np.random.default_rng(9)
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300, 1e300, -1e300,
                        0.5, 3.0])
    cols = {}
    for k, name in enumerate(VARS):
        vals = np.concatenate((np.roll(special, k), rng.uniform(-3.0, 3.0, n - special.size)))
        cols[name] = vals
    return cols


class TestCompile:
    @pytest.mark.parametrize("array", [False, True])
    def test_kernels_keep_the_bits_of_the_literal_compiler(self, array):
        cols = _points()
        args = [cols[name] for name in VARS]
        for e in _compile_corpus():
            fn, ref = tv.compile_fn(e, array=array), reference_compile_fn(e, array=array)
            if array:
                with np.errstate(all="ignore"):
                    assert _same_bits(fn(*args), ref(*args)), tv.to_text(e)
                continue
            for point in zip(*(a.tolist() for a in args)):
                try:
                    want = ref(*point)
                except (ValueError, ZeroDivisionError, OverflowError) as exc:
                    with pytest.raises(type(exc)):
                        fn(*point)
                    continue
                assert _same_bits(fn(*point), want), (tv.to_text(e), point)

    def test_trees_that_differ_in_a_constant_share_one_code_object(self):
        tree = tv.parse("sqrt(1 + v^2) + w*cos(x)", bound=["w"])
        a, b = (tv.compile_fn(tv.substitute(tree, "w", Const(w))) for w in (0.25, 0.75))
        assert a is not b and a.__code__ is b.__code__
        assert a(0.0, 0.0, 0.0) == 1.25 and b(0.0, 0.0, 0.0) == 1.75

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The sources ``compile`` is called on from now on."""
        seen = []

        def counted(*args, _compile=builtins.compile, **kwargs):
            seen.append(args[0])
            return _compile(*args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counted)
        return seen

    def test_a_sweep_compiles_as_often_as_one_row(self, compiles):
        # 200 rows like those of the sweep_small benchmark workload: one shape
        # per kernel, so 200 rows make the compile() calls of one (w = 1 would
        # be a shape of its own, because diff folds a factor of one away)
        tree = tv.parse("sqrt(1 + v^2) + 2*(z - 1)^2 + w*cos(x)", bound=["w"])
        scale = tv.TimeScale.integer_range(0, 8)

        def factory(w):
            return tv.VariationalProblem(scale, tv.substitute(tree, "w", Const(w)), 0.0)

        counts = []
        for values in ([0.51], np.random.default_rng(1).uniform(0.02, 1.0, 200)):
            tv.expr.diff.cache_clear()
            tv.compile_fn.cache_clear()
            compiles.clear()
            rows = tv.sweep(factory, values)
            assert all(r.converged for r in rows)
            counts.append(len(compiles))
        assert counts[0] == counts[1] > 0

    def test_cache_clear_empties_the_shapes_too(self, compiles):
        e = tv.parse("x^2 + 0.125*u")
        tv.compile_fn(e, array=True)
        compiles.clear()
        tv.compile_fn(e, array=True)
        tv.compile_fn(tv.parse("x^2 + 0.25*u"), array=True)
        assert compiles == []  # a cached tree, then a cached shape
        tv.compile_fn.cache_clear()
        assert tv.expr._compile_shape.cache_info().currsize == 0
        tv.compile_fn(e, array=True)
        assert len(compiles) == 1


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

"""Expression language: parsing, printing, evaluation, differentiation."""

import dataclasses
import math

import numpy as np
import pytest

from jetflow.exprlang import (DET_TOL, Add, Call, Div, Expr, ExprError, Mul, Neg, Num, Pow, Sub,
                              Var, add, call, compile_floats, compile_rk4, compile_table, diff, div,
                              evaluate,
                              evaluate_table,
                              free_vars, mul, neg, num, parse, pow_, subst, to_str, total, var)
from jetflow import numdiff as nd
from jetflow.dtensor import _hessian_exprs
from jetflow.geometry import energy_density, metric_from_name, pullback_metric
from jetflow.jetspace import jet_env, jet_pullback, random_jet

from helpers import distinct_nodes, naive_diff, naive_subst, standard_metrics


# ---------------------------------------------------------------------------
# parsing and printing


CASES = [
    ("1 + 2*3", 7.0),
    ("(1 + 2)*3", 9.0),
    ("2^3^2", 512.0),            # right-associative exponent chain
    ("-2^2", -4.0),              # unary minus binds weaker than ^
    ("(-2)^2", 4.0),
    ("2*-3", -6.0),
    ("4/2/2", 1.0),              # division is left-associative
    ("10 - 3 - 2", 5.0),
    ("sin(0)", 0.0),
    ("cos(0) + exp(0)", 2.0),
    ("sqrt(16)", 4.0),
    ("log(exp(2))", 2.0),
    ("2^-1", 0.5),
    ("x^0", 1.0),
]


@pytest.mark.parametrize("text,value", CASES)
def test_parse_and_evaluate(text, value):
    assert evaluate(parse(text), {"x": 3.0}) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("text,value", CASES)
def test_print_parse_round_trip_preserves_value(text, value):
    printed = to_str(parse(text))
    assert evaluate(parse(printed), {"x": 3.0}) == pytest.approx(value, abs=1e-12)


def test_round_trip_is_identity_on_reprinted_form():
    for text, _ in CASES:
        printed = to_str(parse(text))
        assert to_str(parse(printed)) == printed


def test_negative_base_power_prints_with_parentheses():
    e = pow_(num(-2.0), 2)
    s = to_str(e)
    assert evaluate(parse(s), {}) == 4.0


def test_precedence_parentheses():
    assert to_str(parse("(x+1)*y")) == "(x + 1.0)*y"
    assert to_str(parse("x + 1*y")) == "x + 1.0*y"


# ---------------------------------------------------------------------------
# errors


@pytest.mark.parametrize("text,fragment", [
    ("", "expected operand"),
    ("(x+1", "expected ')'"),
    ("x )", "unexpected token"),
    ("foo(x)", "unknown function"),
    ("sin()", "expected operand"),
    ("9^9^9", "exponent too large"),
    ("x^99999", "exponent too large"),
    ("x^y", "integer literal"),
    ("x^(2)", "integer literal"),
    ("1 @ 2", "unexpected character"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ExprError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert isinstance(err.value.offset, int)


DOMAIN_ERRORS = [
    ("1/0", {}),
    ("log(0)", {}),
    ("log(-1)", {}),
    ("sqrt(-4)", {}),
    ("0^-1", {}),
    ("1/x", {"x": 0.0}),
    ("x^-2", {"x": 0.0}),
    ("log(x) + sqrt(x)", {"x": -1.0}),
    ("sqrt(x)/(x - x)", {"x": -1.0}),      # the denominator is checked first
]


@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_domain_errors(text, env):
    with pytest.raises(ExprError):
        evaluate(parse(text), env)


@pytest.mark.parametrize("arrays", [False, True])
@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_compiled_table_raises_the_interpreters_domain_error(text, env, arrays):
    if arrays:
        env = {k: np.array([1.0, v, 2.0]) for k, v in env.items()}
    with pytest.raises(ExprError) as want:
        evaluate(parse(text), env)
    table = compile_table([parse("x + 1"), parse(text)], sorted(env) or ["x"])
    with pytest.raises(ExprError) as got:
        table(*[env[k] for k in sorted(env)] or [1.0])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_rk4_loop_raises_the_interpreters_domain_error(text, env):
    """A right-hand side compiled for floats keeps the table's guards: a
    node on literals only raises when it is built, any other in the first
    stage, with the interpreter's error."""
    with pytest.raises(ExprError) as want:
        evaluate(parse(text), env)
    built = False
    with pytest.raises(ExprError) as got:
        rhs = compile_floats([parse(text)], ["s", "x"])
        built = True
        compile_rk4(1, rhs)(0.0, env.get("x", 1.0), 0.1, 1, None)
    assert str(got.value) == str(want.value)
    assert built == bool(free_vars(parse(text)))


def test_rk4_loop_checks_a_literal_guard_once():
    """A literal guard of at least DET_TOL has no det test in the generated
    code, so its check is never called; one below DET_TOL calls its check,
    which raises, once, when the right-hand side is built."""
    seen = []
    rhs = compile_floats([parse("-x")], ["s", "x"], [(num(2.0), seen.append)])
    assert not {"check0", "DET_TOL"} & set(rhs.__code__.co_names)
    run = compile_rk4(1, rhs)
    s, x = run(0.0, 1.0, 0.01, 100, None)
    assert seen == [] and s == 1.0 and abs(x - math.exp(-1.0)) < 1e-9

    def degenerate(value):
        seen.append(value)
        raise RuntimeError("first entry below DET_TOL")

    with pytest.raises(RuntimeError, match="below DET_TOL"):
        compile_floats([parse("-x")], ["s", "x"], [(num(1e-13), degenerate)])
    assert seen == [1e-13]


def test_rk4_loop_runs_each_guard_before_any_entry():
    """A literal guard of at least DET_TOL is never tested; a variable one,
    which no entry reads, is tested at every stage, and its check is called
    where its value is below DET_TOL, before any entry.  A check that
    records instead of raising shows every stage's test."""
    const, seen = [], []
    rhs = compile_floats([parse("-x")], ["s", "x"],
                         [(num(2.0), const.append), (parse("1e-13*x"), seen.append)])
    compile_rk4(1, rhs)(0.0, 1.0, 0.01, 10, None)
    assert const == [] and len(seen) == 4 * 10 and all(0 < v < DET_TOL for v in seen)

    def second(value):
        seen.append(value)
        raise RuntimeError("second guard below DET_TOL")

    # 1e-12*x is below DET_TOL once x < 1, where sqrt(x - 1) would raise
    rhs = compile_floats([parse("0*sqrt(x - 1) - x")], ["s", "x"],
                         [(num(2.0), const.append), (parse("1e-12*x"), second)])
    assert len(rhs(0.0, 2.0)) == 1
    run = compile_rk4(1, rhs)
    seen.clear()
    run(0.0, 2.0, 0.01, 10, None)
    assert seen == []
    with pytest.raises(RuntimeError, match="second guard below DET_TOL"):
        run(0.0, 1.0, 0.01, 10, None)      # stage 1 at x = 1 passes, stage 2 does not
    assert const == [] and len(seen) == 1 and 0 < seen[0] < DET_TOL


@pytest.mark.parametrize("arrays", [False, True])
@pytest.mark.parametrize("text,env", DOMAIN_ERRORS)
def test_evaluate_table_raises_the_interpreters_first_error(text, env, arrays):
    if arrays:
        env = {k: np.array([1.0, v, 2.0]) for k, v in env.items()}
    bad = parse(text)
    children = [getattr(bad, f) for f in ("a", "b", "base", "arg") if hasattr(bad, f)]
    env = env or {"x": 1.0}
    # later entries share the failing one's subtrees; then earlier ones do
    for exprs in ([parse("x + 1"), bad, mul(bad, bad), parse("log(-1)")], [*children, bad]):
        with pytest.raises(ExprError) as want:
            for e in exprs:
                e.eval(env)
        with pytest.raises(ExprError) as got:
            evaluate_table(exprs, env)
        assert str(got.value) == str(want.value)


def test_evaluate_table_first_error_follows_entry_order():
    env = {"x": -1.0}
    exprs = [parse("x^2"), parse("sqrt(x)"), parse("log(x)"), parse("1/(x + 1)")]
    with pytest.raises(ExprError, match="sqrt"):
        evaluate_table(exprs, env)
    with pytest.raises(ExprError, match="log"):
        evaluate_table(exprs[2:] + exprs[:2], env)
    with pytest.raises(ExprError, match="unbound variable 'y'"):
        evaluate_table([parse("x"), parse("x + y")], env)


def test_unbound_variable():
    with pytest.raises(ExprError):
        evaluate(parse("x + y"), {"x": 1.0})


# ---------------------------------------------------------------------------
# evaluation on arrays


def test_array_evaluation_matches_scalar():
    e = parse("sin(x)*y + x^2")
    xs = np.linspace(-2, 2, 7)
    ys = np.linspace(0, 1, 7)
    batch = evaluate(e, {"x": xs, "y": ys})
    singles = np.array([evaluate(e, {"x": float(a), "y": float(b)})
                        for a, b in zip(xs, ys)])
    assert np.allclose(batch, singles, atol=1e-15)


# ---------------------------------------------------------------------------
# compiled tables against the tree interpreter


def test_compiled_table_equals_interpreter_on_floats_and_arrays():
    rng = np.random.default_rng(303)
    exprs = [_random_expr(rng, 4) for _ in range(40)]
    exprs += [diff(e, "x") for e in exprs[:10]] + [num(-0.0), var("y")]
    table = compile_table(exprs, ["x", "y"])
    xs, ys = rng.uniform(0.5, 1.5, 6), rng.uniform(0.5, 1.5, 6)
    for x0, y0 in zip(xs.tolist(), ys.tolist()):
        want = [evaluate(e, {"x": x0, "y": y0}) for e in exprs]
        got = table(x0, y0)
        assert all(isinstance(v, float) for v in got)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-13
    want = [evaluate(e, {"x": xs, "y": ys}) for e in exprs]
    for g, w in zip(table(xs, ys), want):
        assert np.max(np.abs(np.broadcast_to(g, xs.shape) - w)) <= 1e-13


def test_compiled_table_shares_equal_subtrees():
    # three trees built separately; the distinct nodes are sin(x), the
    # product and the sum, so the function has one local per distinct node
    exprs = [parse("sin(x)*sin(x) + sin(x)"), parse("sin(x)*sin(x)"), parse("sin(x)")]
    table = compile_table(exprs, ["x"])
    assert table.compiled().__code__.co_nlocals == 1 + 3
    assert table(0.5) == tuple(evaluate(e, {"x": 0.5}) for e in exprs)


def test_compiled_table_guard_runs_before_the_entries():
    def check(value):
        if value == 0:
            raise RuntimeError("guard is zero")

    table = compile_table([parse("1/x")], ["x"], [(parse("x"), check)])
    assert table(2.0) == (0.5,)
    with pytest.raises(RuntimeError):
        table(0.0)


def test_each_guard_runs_before_any_entry():
    """A guard's check is called with its value only where that value is
    below DET_TOL (on columns, where any element is), the guards are
    tested in order, and no entry is computed after a failing guard, in
    every tier: the walk, the compiled function, on columns, frozen, and
    `compile_floats`.  The first guard, x + 1, is read by no entry.  The
    entries would raise a different error at y = 0: x/y has no zero test of
    its own after the det test on y, and sqrt(y - 1) is a domain error.  A
    table returns one value per entry, and none per guard."""
    seen = []

    def first(value):
        seen.append(("first", value))
        raise RuntimeError("first entry is degenerate")

    def second(value):
        seen.append(("second", value))
        raise RuntimeError("second entry is degenerate")

    exprs = [parse("x/y"), parse("sqrt(y - 1)")]
    guards = [(parse("x + 1"), first), (parse("y"), second)]
    for run in (lambda table, x, y: table(x, y),
                lambda table, x, y: table.compiled()(x, y),
                lambda table, x, y: table(np.array([x, x]), np.array([1.0, y])),
                lambda table, x, y: table.freeze(["x"], [x])(y),
                lambda table, x, y: compile_floats(table.exprs, table.names, table.guards)(x, y)):
        table = compile_table(exprs, ["x", "y"], guards)
        seen.clear()
        got = run(table, 3.0, 2.0)
        assert [np.broadcast_to(v, (2,))[-1] for v in got] == [1.5, 1.0]
        assert seen == []
        with pytest.raises(RuntimeError, match="second entry is degenerate"):
            run(table, 3.0, 0.0)
        assert [name for name, _ in seen] == ["second"]
        seen.clear()
        with pytest.raises(RuntimeError, match="first entry is degenerate"):
            run(table, -1.0, 0.0)
        assert [name for name, _ in seen] == ["first"]


def test_compiled_table_rejects_unbound_variable():
    """The interpreter's error, from whichever tier first evaluates the
    table: the walk, the compiler, a call on columns, or `freeze`."""
    exprs = [parse("x + y")]
    for run in (lambda table: table(1.0), lambda table: table.compiled(),
                lambda table: table(np.array([1.0, 2.0])),
                lambda table: table.freeze(["x"], [1.0])):
        table = compile_table(exprs, ["x"])
        with pytest.raises(ExprError, match="unbound variable 'y'"):
            run(table)


# ---------------------------------------------------------------------------
# differentiation: symbolic vs centered differences, randomized


def _random_expr(rng: np.random.Generator, depth: int) -> Expr:
    """Random expression over x, y that stays finite and domain-safe on
    [0.5, 1.5]^2 (log/sqrt arguments kept positive, exponents small)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return var("x" if rng.random() < 0.5 else "y")
        return num(float(rng.uniform(0.2, 2.0)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 1:
        return mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:
        return div(_random_expr(rng, depth - 1),
                   add(num(2.0), call("cos", _random_expr(rng, depth - 1))))
    if kind == 3:
        return call(str(rng.choice(["sin", "cos", "exp", "sinh"])),
                    mul(num(0.5), _random_expr(rng, depth - 1)))
    if kind == 4:
        return pow_(add(num(1.5), call("sin", _random_expr(rng, depth - 1))),
                    int(rng.integers(1, 4)))
    return neg(_random_expr(rng, depth - 1))


def test_symbolic_derivative_matches_finite_differences():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        e = _random_expr(rng, 3)
        if not free_vars(e):
            continue
        x0 = float(rng.uniform(0.6, 1.4))
        y0 = float(rng.uniform(0.6, 1.4))
        h = 1e-6
        for name in sorted(free_vars(e)):
            d_sym = evaluate(diff(e, name), {"x": x0, "y": y0})
            hi = {"x": x0, "y": y0}; hi[name] += h
            lo = {"x": x0, "y": y0}; lo[name] -= h
            d_fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            scale = max(1.0, abs(d_sym))
            assert abs(d_sym - d_fd) / scale < 1e-6, to_str(e)
            checked += 1
    assert checked >= 200


def test_round_trip_parse_print_parse_random():
    rng = np.random.default_rng(202)
    for _ in range(200):
        e = _random_expr(rng, 3)
        s1 = to_str(e)
        e2 = parse(s1)
        assert to_str(e2) == s1
        env = {"x": 1.1, "y": 0.9}
        assert evaluate(e, env) == pytest.approx(evaluate(e2, env), rel=1e-12)


# ---------------------------------------------------------------------------
# substitution and structure


def test_subst_replaces_free_variables():
    e = parse("x^2 + y")
    out = subst(e, {"x": parse("u + 1")})
    assert evaluate(out, {"u": 2.0, "y": 3.0}) == pytest.approx(12.0)
    assert free_vars(out) == {"u", "y"}


def test_subst_is_simultaneous():
    e = parse("x + y")
    out = subst(e, {"x": var("y"), "y": var("x")})
    assert evaluate(out, {"x": 1.0, "y": 10.0}) == pytest.approx(11.0)


def test_smart_constructors_fold():
    x = var("x")
    assert isinstance(mul(num(0.0), x), Num)
    assert mul(num(1.0), x) is x
    assert add(x, num(0.0)) is x
    assert isinstance(pow_(x, 0), Num)
    assert pow_(x, 1) is x
    assert isinstance(neg(neg(x)), Var)
    assert evaluate(add(num(2.0), num(3.0)), {}) == 5.0


def test_total_folds_add_left_to_right_onto_zero():
    a, b, c = var("a"), parse("sin(b)"), Num(2.5)
    assert total([a, b, c]) == add(add(a, b), c)
    assert total(iter([a, b])) == add(a, b)
    assert total([]) is num(0.0)
    assert total([num(0.0), a]) is a


def test_quotient_with_constant_denominator_differentiates_without_b_squared():
    """(a/b)' is a'/b where b' is the literal zero, so no b^2 can underflow
    to a spurious division by zero; the division by b stays, and so does
    its guard, also where a' is zero."""
    d = diff(parse("x/t1"), "x")
    assert d == div(num(1.0), var("t1"))
    assert evaluate(d, {"x": 2.0, "t1": 1e-200}) == 1.0 / 1e-200
    with pytest.raises(ExprError, match="division by zero"):
        evaluate(d, {"x": 2.0, "t1": 0.0})
    assert diff(parse("t1/sin(t1)"), "x") == div(num(0.0), call("sin", var("t1")))
    with pytest.raises(ExprError, match="division by zero"):
        evaluate(diff(parse("t1/sin(t1)"), "x"), {"t1": 0.0})
    # a denominator that varies keeps the quotient rule
    assert evaluate(diff(parse("x/t1"), "t1"), {"x": 2.0, "t1": 0.5}) == -8.0


def test_diff_of_power_and_call():
    e = pow_(var("x"), 3)
    d = diff(e, "x")
    assert evaluate(d, {"x": 2.0}) == pytest.approx(12.0)
    d2 = diff(call("exp", mul(num(2.0), var("x"))), "x")
    assert evaluate(d2, {"x": 0.5}) == pytest.approx(2.0 * math.e)


def test_free_vars():
    assert free_vars(parse("sin(x1)*t2 + 4")) == {"x1", "t2"}
    assert free_vars(num(3.0)) == set()


# ---------------------------------------------------------------------------
# memoised diff / subst against the plain recursion


METRICS = [("euclidean:2", "temporal"), ("sphere:2", "spatial"), ("hyperbolic:2", "spatial"),
           ("exp1d", "temporal"), ("conformal2d:0.3*t1 - 0.2*t2 + 0.1*t1*t2", "temporal")]


@pytest.mark.parametrize("change_kind", ["affine", "shear", "mixed", "monotone"])
@pytest.mark.parametrize("name,kind", METRICS)
def test_memoised_diff_and_subst_equal_reference_on_catalogs(name, kind, change_kind):
    rng = np.random.default_rng(sum(map(ord, name + kind + change_kind)))
    g = metric_from_name(name, kind)
    p, n = (g.dim, 1) if kind == "temporal" else (1, g.dim)
    c = nd.random_change(rng, p, n, change_kind)
    other = nd.random_change(rng, p, n, "shear")
    names = nd.temporal_names(p) + nd.spatial_names(n)
    # chart tables: first and second partials, and composition by subst
    for e in c.forward_t + c.forward_x + c.inverse_t + c.inverse_x:
        for v in names:
            first = diff(e, v)
            assert first == naive_diff(e, v)
            for w in names:
                assert diff(first, w) == naive_diff(first, w)
    back = dict(zip(nd.temporal_names(p), other.forward_t))
    back.update(zip(nd.spatial_names(n), other.forward_x))
    for e in c.forward_t + c.forward_x:
        assert subst(e, back) == naive_subst(e, back)
    # metric tables: pullback by subst, then derivatives of the result
    pulled = pullback_metric(g, c)
    inv = dict(zip(g.variables, c.inverse_t if kind == "temporal" else c.inverse_x))
    for row_g, row_p in zip(g.components, pulled.components):
        for comp, pulled_comp in zip(row_g, row_p):
            assert subst(comp, inv) == naive_subst(comp, inv)
            for v in pulled.variables:
                assert diff(pulled_comp, v) == naive_diff(pulled_comp, v)


def test_memoised_hessian_equals_reference_on_pulled_back_lagrangian():
    rng = np.random.default_rng(303)
    h, phi = standard_metrics(2, 2)
    L = energy_density(h, phi)
    for c in nd.change_catalog(rng, 2, 2, ["affine", "mixed"], 1):
        Lc = jet_pullback(L, c, 2, 2)
        names = nd.jet_names(2, 2)
        want = [[naive_diff(naive_diff(Lc, v), w) for w in names] for v in names]
        assert _hessian_exprs(Lc, 2, 2) == want


def test_memoised_diff_equals_reference_on_random_trees():
    rng = np.random.default_rng(404)
    for _ in range(100):
        e = _random_expr(rng, 4)
        shared = mul(e, add(e, var("y")))       # a DAG: e occurs twice
        for v in ("x", "y"):
            assert diff(shared, v) == naive_diff(shared, v)
        m = {"x": add(var("y"), num(1.0)), "y": call("sin", var("x"))}
        assert subst(shared, m) == naive_subst(shared, m)


def test_diff_is_kept_on_the_node_across_calls():
    rng = np.random.default_rng(707)
    for _ in range(50):
        e = _random_expr(rng, 4)
        shared = mul(e, add(e, var("y")))
        if isinstance(shared, (Num, Var)):
            continue
        for v in ("x", "y"):
            first = diff(shared, v)
            assert diff(shared, v) is first         # a new outermost call
            assert first == naive_diff(shared, v)
            if isinstance(first, (Num, Var)):
                continue                            # leaves keep no derivatives
            second = diff(first, "x")
            assert diff(diff(shared, v), "x") is second
            assert second == naive_diff(naive_diff(shared, v), "x")


def test_evaluate_table_is_bit_equal_to_the_interpreter():
    rng = np.random.default_rng(505)
    exprs = [_random_expr(rng, 4) for _ in range(30)]
    exprs += [mul(e, add(e, var("y"))) for e in exprs[:10]]      # shared subtrees
    exprs += [diff(e, "x") for e in exprs[:10]] + [num(-0.0), var("y")]
    xs, ys = rng.uniform(0.5, 1.5, 5), rng.uniform(0.5, 1.5, 5)
    for env in [{"x": a, "y": b} for a, b in zip(xs.tolist(), ys.tolist())] + [{"x": xs, "y": ys}]:
        got = evaluate_table(exprs, env)
        for g, e in zip(got, exprs):
            w = e.eval(env)
            assert type(g) is type(w) and np.array_equal(g, w)


def test_evaluate_table_on_pulled_back_lagrangian_hessian():
    rng = np.random.default_rng(606)
    h, phi = standard_metrics(2, 2)
    L = energy_density(h, phi)
    for c in nd.change_catalog(rng, 2, 2, ["shear", "mixed"], 1):
        table = [e for row in _hessian_exprs(jet_pullback(L, c, 2, 2), 2, 2) for e in row]
        for _ in range(2):
            env = jet_env(random_jet(rng, 2, 2, box_t=h.box, box_x=phi.box))
            assert evaluate_table(table, env) == [e.eval(env) for e in table]


def test_evaluate_table_visits_each_node_once():
    # a chain with 2^60 root-to-leaf paths: the tree walk would never finish
    chain = var("x")
    for _ in range(60):
        chain = mul(chain, add(chain, num(1e-300)))
    assert evaluate_table([chain, add(chain, num(1.0))], {"x": 0.5}) == [0.0, 1.0]


def test_diff_and_subst_keep_shared_subtrees_shared():
    s = call("sin", mul(num(2.0), var("x")))
    e = mul(s, add(s, var("y")))
    d = diff(e, "x")                 # ds*(s + y) + s*ds, one ds object
    assert d.a.a is d.b.b
    out = subst(add(s, s), {"x": var("t")})
    assert out.a is out.b
    # a chain with 2^60 root-to-leaf paths stays linear in size
    chain = var("x")
    for _ in range(60):
        chain = mul(chain, add(chain, num(1.0)))
    assert distinct_nodes(diff(chain, "x")) < 10 * 60
    assert distinct_nodes(subst(chain, {"x": var("y")})) < 3 * 60 + 3


# ---------------------------------------------------------------------------
# node objects


NODE_CLASSES = [Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


def _one_of_each_node():
    x = var("x")
    return [Num(2.0), x, Neg(x), Add(x, x), Sub(x, x), Mul(x, x), Div(x, x), Pow(x, 3),
            Call("sin", x)]


def test_assigning_a_field_of_any_node_raises():
    nodes = _one_of_each_node()
    assert [type(e) for e in nodes] == NODE_CLASSES
    for e in nodes:
        assert dataclasses.fields(e)
        for f in dataclasses.fields(e):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, f.name, getattr(e, f.name))


def test_any_assignment_or_deletion_on_any_node_raises():
    """Not only fields: any other name, `_dmemo` included, and deletion.
    `diff` still keeps its derivatives on the node."""
    assert set(NODE_CLASSES) == set(Expr.__subclasses__())
    for e in _one_of_each_node():
        for name in [f.name for f in dataclasses.fields(e)] + ["other", "_dmemo"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(e, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse("x + 1").other = 1
    e = parse("x*sin(x)")
    first = diff(e, "x")
    assert diff(e, "x") is first and e._dmemo == {"x": first}


def _distinct(*roots):
    seen, todo = {}, list(roots)
    while todo:
        e = todo.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            todo.extend(e._children())
    return list(seen.values())


def _assert_dataclass_semantics(roots):
    """Each node equals, and hashes like, a fresh node of its type and fields
    (keyword arguments, as the generated ``__init__`` takes them); its hash
    is that of its field tuple; printing and parsing give an equal tree."""
    for e in _distinct(*roots):
        values = {f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
        twin = type(e)(**values)
        assert twin == e and twin is not e and hash(twin) == hash(e)
        assert hash(e) == hash(tuple(values.values()))
        assert str(twin) == str(e)
    for e in roots:
        back = parse(to_str(e))
        assert back == e and hash(back) == hash(e) and str(back) == str(e)


@pytest.mark.parametrize("name,kind", METRICS)
def test_nodes_compare_hash_and_print_as_dataclasses(name, kind):
    rng = np.random.default_rng(sum(map(ord, "nodes" + name + kind)))
    g = metric_from_name(name, kind)
    p, n = (g.dim, 1) if kind == "temporal" else (1, g.dim)
    c = nd.random_change(rng, p, n, "mixed")
    comps = [e for row in g.components for e in row]
    derived = [diff(e, v) for e in comps for v in g.variables]
    pulled = [e for row in pullback_metric(g, c).components for e in row]
    inv = dict(zip(g.variables, c.inverse_t if kind == "temporal" else c.inverse_x))
    _assert_dataclass_semantics(comps + derived + pulled + [subst(e, inv) for e in comps])
    assert Num(1.0) != Num(2.0) and Var("x") != Var("y")
    assert Add(var("x"), num(1.0)) != Sub(var("x"), num(1.0))


def test_leaf_derivatives_are_the_shared_zero_and_one():
    zero, one = num(0.0), num(1.0)
    assert num(0) is zero and num(1) is one and Num(0.0) is not zero
    for e in (var("x"), var("y"), Num(2.5), Num(-0.0), Pow(var("x"), 0)):
        assert diff(e, "x") is (one if e == var("x") else zero)
    assert mul(var("x"), num(0.0)) is zero and mul(Num(0.0), var("x")) is zero
    assert pow_(var("x"), 0) is one


def test_minus_zero_keeps_its_sign():
    for e in (num(-0.0), Num(-0.0), neg(num(0.0))):
        assert e.value == 0.0 and math.copysign(1.0, e.value) == -1.0
        assert e is not num(0.0)
    assert math.copysign(1.0, num(0.0).value) == 1.0

"""Unit tests for the dataflow core: polynomials, CFG, intervals.

These exercise the shared machinery underneath the lints: the polynomial
normal form, the control-flow graph with reaching definitions and def-use
chains, and the interval abstract interpretation.
"""

from fractions import Fraction

from repro.mcl.mcpl import ast
from repro.mcl.mcpl.parser import parse_kernel
from repro.mcl.mcpl.semantics import analyze
from repro.mcl.verify.cfg import build_cfg, def_use_chains, reaching_definitions
from repro.mcl.verify.intervals import _floordiv_hi, analyze_intervals
from repro.mcl.verify.poly import Poly, expr_to_poly


def info_of(source):
    return analyze(parse_kernel(source))


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

def test_poly_arithmetic_normalizes():
    n = Poly.var("n")
    assert (n + Poly.const(1) - n).constant_value() == Fraction(1)
    assert (n * Poly.const(0)).is_zero()
    assert ((n + n) - n.scale(2)).is_zero()


def test_poly_nonnegativity_assumes_nonnegative_symbols():
    n = Poly.var("n")
    assert n.is_nonnegative()
    assert (n + Poly.const(3)).is_nonnegative()
    assert not (n - Poly.const(1)).is_nonnegative()    # n could be 0
    assert (-n).is_nonpositive()


def test_poly_substitute_and_coefficient():
    n, i = Poly.var("n"), Poly.var("i")
    p = n * Poly.const(2) + i
    assert p.coefficient_of("i").constant_value() == Fraction(1)
    q = p.substitute("i", Poly.const(5))
    assert (q - n.scale(2)).constant_value() == Fraction(5)


def test_poly_integral_coefficients_are_ints():
    three, six_halves = Poly.const(3), Poly.const(Fraction(6, 2))
    assert three == six_halves
    assert hash(three) == hash(six_halves)
    assert repr(six_halves) == "3"
    assert type(six_halves.constant_value()) is int
    x = Poly.var("x")
    halved = x.scale(2).scale(Fraction(1, 2))
    assert halved == x and type(halved.terms[("x",)]) is int
    assert repr(x.scale(Fraction(1, 2))) == "1/2*x"


def test_poly_cancelling_sums_leave_no_zero_terms():
    x, y = Poly.var("x"), Poly.var("y")
    assert (x + y - x).terms == {("y",): 1}
    assert ((x - y) * (x + y)).terms == {("x", "x"): 1, ("y", "y"): -1}
    half = x.scale(Fraction(1, 2))
    assert (half + half).terms == {("x",): 1}
    assert type((half + half).terms[("x",)]) is int
    assert (half - half).is_zero() and (x + (-x)).terms == {}


def test_floordiv_bound_divides_constants_exactly():
    assert _floordiv_hi(Poly.const(7), Poly.const(2)) == Poly.const(3)
    assert _floordiv_hi(Poly.const(-7), Poly.const(2)) == Poly.const(-4)
    assert _floordiv_hi(Poly.const(Fraction(7, 2)),
                        Poly.const(Fraction(1, 2))) == Poly.const(7)
    assert _floordiv_hi(Poly.var("n"), Poly.const(4)) \
        == Poly.var("n").scale(Fraction(1, 4))
    six_by_three = ast.Binary(op="/", left=ast.IntLit(value=6),
                              right=ast.IntLit(value=3))
    assert expr_to_poly(six_by_three) == Poly.const(2)
    seven_by_two = ast.Binary(op="/", left=ast.IntLit(value=7),
                              right=ast.IntLit(value=2))
    assert not expr_to_poly(seven_by_two).is_constant   # an opaque atom


def test_expr_to_poly_handles_nonlinear_atoms():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i * i] = 0.0;  // lint: ignore[MCL201] probe
      }
    }
    """
    info = info_of(src)
    # i * i is not linear: it becomes an opaque atom, but stays stable
    # (the same expression maps to the same atom).
    analysis = analyze_intervals(info)
    assert analysis.accesses          # the access is still recorded


# ---------------------------------------------------------------------------
# CFG: reaching definitions and def-use chains
# ---------------------------------------------------------------------------

BRANCHY = """
perfect void f(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = 1.0;
    if (i < 2) {
      x = 2.0;
    }
    a[i] = x;
  }
}
"""


def test_reaching_definitions_merge_at_join():
    info = info_of(BRANCHY)
    cfg = build_cfg(info)
    in_sets = reaching_definitions(cfg)
    # At the read of x (the a[i] = x node), both definitions of x reach.
    read_nodes = [n for n in cfg.nodes if "x" in n.uses]
    assert read_nodes
    node = read_nodes[-1]
    defs_of_x = {d.def_id for d in cfg.definitions if d.var == "x"}
    assert len(defs_of_x & in_sets[node.index]) == 2


def test_def_use_chains_connect_both_branches():
    info = info_of(BRANCHY)
    cfg = build_cfg(info)
    chains = def_use_chains(cfg, reaching_definitions(cfg))
    for d in cfg.definitions:
        if d.var == "x":
            assert chains[d.def_id], "both defs of x are read at the join"


def test_straightline_kill():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = 1.0;
        x = 2.0;
        a[i] = x;
      }
    }
    """
    info = info_of(src)
    cfg = build_cfg(info)
    chains = def_use_chains(cfg, reaching_definitions(cfg))
    dead = [d for d in cfg.definitions
            if d.var == "x" and not chains[d.def_id]]
    # the first store (x = 1.0) is killed by the second before any use
    assert len(dead) == 1


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_foreach_variable_interval_is_loop_range():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i] = 0.0;
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    (rec,) = [r for r in analysis.accesses if r.array == "a"]
    ((_, iv, _),) = rec.dims
    assert iv.nonneg()
    assert iv.bounded_above_by(Poly.var("n") - Poly.const(1))


def test_guard_refines_interval():
    src = """
    perfect void f(int n, int m, float[m] a) {
      foreach (int i in n threads) {
        if (i < m) {
          a[i] = 0.0;
        }
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    (rec,) = [r for r in analysis.accesses if r.array == "a"]
    ((_, iv, _),) = rec.dims
    assert iv.bounded_above_by(Poly.var("m") - Poly.const(1))


def test_for_loop_bound_is_tracked():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        for (int k = 0; k < n; k++) {
          a[k] = a[k] + 1.0;  // lint: ignore[MCL101] probe
        }
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    recs = [r for r in analysis.accesses if r.array == "a"]
    assert recs
    for rec in recs:
        ((_, iv, _),) = rec.dims
        assert iv.nonneg()
        assert iv.bounded_above_by(Poly.var("n") - Poly.const(1))


def test_division_upper_bound_floors_constants():
    # x in [0, 1023] => x / 4 in [0, 255]: the rational 1023/4 must floor.
    src = """
    perfect void f(float[256] a) {
      foreach (int i in 1024 threads) {
        a[i / 4] = 0.0;
      }
    }
    """
    from repro.mcl.verify import verify_source
    assert not [f for f in verify_source(src) if f.code == "MCL201"]

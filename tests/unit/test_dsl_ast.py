"""Unit tests for the DSL expression AST and its NumPy evaluation."""

import numpy as np
import pytest

from repro.dsl import ast
from repro.errors import DSLSemanticError


def ramp(height=6, width=8):
    return np.arange(height * width, dtype=np.float64).reshape(height, width)


class TestConstruction:
    def test_operator_overloading_builds_binops(self):
        expr = ast.StageRef("K0") + 1.0
        assert isinstance(expr, ast.BinOp)
        assert expr.op == "+"

    def test_right_operators(self):
        expr = 2.0 * ast.StageRef("K0")
        assert isinstance(expr, ast.BinOp)
        assert isinstance(expr.left, ast.Const)

    def test_unsupported_binop_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.BinOp("%", ast.Const(1.0), ast.Const(2.0))

    def test_unsupported_unary_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.UnaryOp("!", ast.Const(1.0))

    def test_call_arity_checked(self):
        with pytest.raises(DSLSemanticError):
            ast.Call("clamp", (ast.Const(1.0),))
        with pytest.raises(DSLSemanticError):
            ast.Call("select", (ast.Const(1.0), ast.Const(2.0)))
        with pytest.raises(DSLSemanticError):
            ast.Call("min", (ast.Const(1.0),))

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.Call("foo", (ast.Const(1.0),))

    def test_str_round_trip_mentions_offsets(self):
        text = str(ast.StageRef("K0", -1, 2))
        assert "K0" in text and "x-1" in text and "y+2" in text


class TestAnalyses:
    def test_references_by_stage(self):
        expr = ast.StageRef("A", 0, 0) + ast.StageRef("B", 1, 1) * ast.StageRef("A", -1, 0)
        refs = ast.references_by_stage(expr)
        assert set(refs) == {"A", "B"}
        assert len(refs["A"]) == 2

    def test_stencil_windows_union_offsets(self):
        expr = ast.StageRef("A", -1, -2) + ast.StageRef("A", 2, 1)
        window = ast.stencil_windows(expr)["A"]
        assert window.width == 4
        assert window.height == 4

    def test_operation_count(self):
        expr = ast.StageRef("A") + ast.StageRef("A", 1, 0) * 2.0
        assert ast.estimate_operation_count(expr) == 2

    def test_walk_visits_all_nodes(self):
        expr = ast.Call("max", (ast.StageRef("A"), ast.Const(1.0)))
        kinds = [type(node).__name__ for node in ast.walk(expr)]
        assert kinds.count("StageRef") == 1
        assert kinds.count("Const") == 1


class TestEvaluation:
    def test_reference_shift_with_clamping(self):
        image = ramp()
        shifted = ast.evaluate(ast.StageRef("K0", 1, 0), {"K0": image})
        assert shifted[0, 0] == image[0, 1]
        assert shifted[0, -1] == image[0, -1]  # clamped border

    def test_arithmetic_matches_numpy(self):
        image = ramp()
        expr = ast.StageRef("K0") * 2.0 - 3.0
        np.testing.assert_allclose(ast.evaluate(expr, {"K0": image}), image * 2.0 - 3.0)

    def test_division_by_zero_guarded(self):
        image = ramp()
        expr = ast.StageRef("K0") / 0.0
        result = ast.evaluate(expr, {"K0": image})
        np.testing.assert_allclose(result, image)

    def test_comparisons_are_binary_valued(self):
        image = ramp()
        result = ast.evaluate(ast.StageRef("K0") > 10.0, {"K0": image})
        assert set(np.unique(result)) <= {0.0, 1.0}

    def test_min_max_abs(self):
        image = ramp() - 20.0
        expr = ast.Call("max", (ast.Call("abs", (ast.StageRef("K0"),)), ast.Const(5.0)))
        result = ast.evaluate(expr, {"K0": image})
        np.testing.assert_allclose(result, np.maximum(np.abs(image), 5.0))

    def test_clamp_and_select(self):
        image = ramp()
        clamped = ast.evaluate(
            ast.Call("clamp", (ast.StageRef("K0"), ast.Const(5.0), ast.Const(10.0))),
            {"K0": image},
        )
        assert clamped.min() == 5.0 and clamped.max() == 10.0
        selected = ast.evaluate(
            ast.Call("select", (ast.StageRef("K0") > 10.0, ast.Const(1.0), ast.Const(0.0))),
            {"K0": image},
        )
        np.testing.assert_allclose(selected, (image > 10.0).astype(float))

    def test_sqrt_clamps_negative(self):
        image = ramp() - 100.0
        result = ast.evaluate(ast.Call("sqrt", (ast.StageRef("K0"),)), {"K0": image})
        assert np.all(result >= 0.0)

    def test_missing_image_raises(self):
        with pytest.raises(DSLSemanticError):
            ast.evaluate(ast.StageRef("missing"), {"K0": ramp()})

    def test_floordiv(self):
        image = ramp()
        result = ast.evaluate(ast.StageRef("K0") // 2.0, {"K0": image})
        np.testing.assert_allclose(result, np.floor_divide(image, 2.0))


# Intrinsic-heavy DSL stages alongside plain stencils, so every counting rule
# (binary, unary, n-ary calls) is exercised through the parser.
_DSL_TEXTS = (
    """
input I;
B = im(x,y) (I(x-1,y) + 2*I(x,y) + I(x+1,y)) / 4 end
output O = im(x,y) I(x,y) + (I(x,y) - B(x,y)) end
""",
    """
input I;
GX = im(x,y) I(x+1,y) - I(x-1,y) end
GY = im(x,y) I(x,y+1) - I(x,y-1) end
M = im(x,y) sqrt(GX(x,y)*GX(x,y) + GY(x,y)*GY(x,y)) end
output E = im(x,y) clamp(max(M(x-1,y), M(x,y), M(x+1,y)), 0, 255) end
""",
    """
input I;
A = im(x,y) abs(I(x,y) - I(x+1,y+1)) end
output S = im(x,y) select(A(x,y) > 8, min(A(x,y), I(x,y)), -A(x,y)) end
""",
)


def _memo_dags():
    from repro.algorithms import algorithm_names, build_algorithm
    from repro.dsl.parser import parse_pipeline

    dags = [build_algorithm(name) for name in algorithm_names()]
    dags += [parse_pipeline(text, name=f"dsl-{i}") for i, text in enumerate(_DSL_TEXTS)]
    return dags


class TestOperationCountMemo:
    def test_memoized_count_equals_a_fresh_walk(self, monkeypatch):
        from repro.service.wire import expr_from_wire, expr_to_wire

        expressions = [
            stage.expression
            for dag in _memo_dags()
            for stage in dag.stages()
            if stage.expression is not None
        ]
        assert len(expressions) > 30
        counts = [ast.estimate_operation_count(expr) for expr in expressions]
        fresh = [expr_from_wire(expr_to_wire(expr)) for expr in expressions]
        assert not any("_operation_count" in copy.__dict__ for copy in fresh)
        assert [ast.estimate_operation_count(copy) for copy in fresh] == counts

        def no_walk(expr):
            raise AssertionError("memoized count walked the tree again")

        monkeypatch.setattr(ast, "walk", no_walk)
        assert [ast.estimate_operation_count(expr) for expr in expressions] == counts

    def test_memo_leaves_identity_untouched(self):
        expr = ast.Call("max", (ast.StageRef("A"), ast.StageRef("A", 1, 0) * 2.0))
        twin = ast.Call("max", (ast.StageRef("A"), ast.StageRef("A", 1, 0) * 2.0))
        before = (str(expr), hash(expr), repr(expr))
        assert ast.estimate_operation_count(expr) == 2
        assert (str(expr), hash(expr), repr(expr)) == before
        assert expr == twin and hash(expr) == hash(twin)

    def test_pickled_dag_keeps_fingerprint_and_counts(self):
        import pickle

        from repro.api import CompileTarget

        for dag in _memo_dags():
            pristine = CompileTarget(dag, image_width=64, image_height=48).fingerprint
            counts = {
                stage.name: ast.estimate_operation_count(stage.expression)
                for stage in dag.stages()
                if stage.expression is not None
            }
            clone = pickle.loads(pickle.dumps(dag))
            assert CompileTarget(clone, image_width=64, image_height=48).fingerprint == pristine
            assert {
                stage.name: ast.estimate_operation_count(stage.expression)
                for stage in clone.stages()
                if stage.expression is not None
            } == counts

"""The README's python blocks run as written, and return what their comments
say."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def tour():
    """Run every python block of the README, in order, in one namespace.

    Returns the namespace and the value of each expression statement, keyed
    by its source text.
    """
    namespace, values = {}, {}
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        for statement in ast.parse(block).body:
            source = ast.get_source_segment(block, statement)
            if isinstance(statement, ast.Expr):
                code = compile(ast.Expression(statement.value), "README.md", "eval")
                values[source] = eval(code, namespace)
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    return namespace, values


def test_structure_fields_at_the_base_point(tour):
    namespace, values = tour
    assert values["S.reeb(x)"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert values["S.hamiltonian_field(H, x)"] == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    assert values["S.poisson_bracket(H, H, x)"] == 0.0
    S, H, x = namespace["S"], namespace["H"], namespace["x"]
    assert values["St.reeb(x)"] == pytest.approx(S.evaluation_vf(H)(x), abs=1e-12)


def test_drift_is_read_off_the_flow(tour):
    drift = tour[1]["drift_report(traj, sys.integrals)"]
    assert list(drift) == ["H"]
    assert drift["H"] < 1e-9


def test_torus_actions_and_frequencies(tour):
    namespace, values = tour
    assert namespace["torus"].actions == pytest.approx([0.5, 0.0], abs=1e-9)
    assert namespace["torus"].b == pytest.approx(np.eye(2), abs=1e-9)
    assert values['solve_frequencies(torus, "reeb")'] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert values['solve_frequencies(torus, "hamiltonian", 1)'] == pytest.approx(
        [1.0, 0.0], abs=1e-9
    )

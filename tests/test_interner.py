"""Collision branch of the fresh-symbol interner, for each table that uses
it: coalesce-fol symbols (c), coalesce-ml atoms (a) and stratify's
definitional symbols (q).  When the environment already declares the name
the table would pick, the fresh symbol takes the `_1` suffix."""
import pytest

from foml.coalesce import coalesce_obligation_fol
from foml.coalesce_ml import coalesce_obligation_ml
from foml.emit import stratify
from foml.syntax import (
    DefinitionEnvironment,
    Eq,
    FlexVar,
    Nabla,
    Obligation,
    OpApp,
    RigidVar,
)


def _fol(env, goal):
    return [e.name for e in coalesce_obligation_fol(
        Obligation((), goal, env)).table.in_order()]


def _ml(env, goal):
    return [e.name for e in coalesce_obligation_ml(
        Obligation((), goal, env, "ml")).table.in_order()]


def _q(env, goal):
    # `(g (= x 0))` puts an equality at a term position: one q symbol.
    return [d.name for d in stratify((), goal, env).defs]


GOAL_FOL = Nabla(Eq(FlexVar("v"), OpApp("0")))
GOAL_ML = Eq(RigidVar("x"), OpApp("0"))
GOAL_Q = Eq(OpApp("g", (Eq(RigidVar("x"), OpApp("0")),)), OpApp("0"))


@pytest.mark.parametrize("prefix,names_of,goal", [
    ("c", _fol, GOAL_FOL),
    ("a", _ml, GOAL_ML),
    ("q", _q, GOAL_Q),
], ids=["c", "a", "q"])
def test_declared_name_gets_suffix(prefix, names_of, goal):
    env = DefinitionEnvironment.build(
        ops={"0": 0, "g": 1}, rigid=("x",), flex=("v",))
    (picked,) = names_of(env, goal)
    assert picked.startswith(f"{prefix}0__")

    clash = env.extended(ops={picked: 0})
    (fresh,) = names_of(clash, goal)
    assert fresh == f"{picked}_1"
    assert clash.kind(fresh) is None

    # Declaring the suffixed name too moves the fresh symbol on to `_2`.
    (fresh2,) = names_of(clash.extended(ops={fresh: 0}), goal)
    assert fresh2 == f"{picked}_2"

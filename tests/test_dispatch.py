"""Node-kind dispatch: the exact-type walkers against the class-pattern
ones they replaced (`reference_syntax`), what every dispatcher does with a
node kind it does not know, and scans of the package's source that keep
class patterns, hashes other than `Record`'s, dataclasses other than four,
writes to record fields, unused top-level definitions and recursing
passes out of it."""
import ast
import functools
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from foml import printer, syntax
from foml.actions import PrimedVars, coalesce_action, distribute_prime
from foml.coalesce import SymbolTable, coalesce_fol, rewrite_rigid_box
from foml.coalesce_ml import AtomTable, coalesce_ml
from foml.emit import FolIR, emit_mlseq, emit_smt, emit_tptp, stratify
from foml.gen import random_env, random_expr, rng_for
from foml.leibniz import _vars_in_non_leibniz_positions
from foml.models import FOLStructure, KripkeModel
from foml.prover import MLSequent, prove_ml
from foml.search import SearchBounds, find_countermodel
from foml.semantics import compile_lanes, eval_expr, eval_fol, eval_ml
from foml.syntax import (
    FALSE,
    DefApp,
    Definition,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    Forall,
    Implies,
    InternalError,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    RigidVar,
)

sys.path.insert(0, str(Path(__file__).parent))
import reference_syntax as reference  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "foml"


def _tag(e: Expression, tag: Expression) -> Expression:
    return Implies(e, tag)


def _tag_children(e: Expression, top: bool):
    """`rewrite`'s step that rebuilds the root from its children c, each
    replaced by _tag(c, FALSE): map_children(e, _tag, FALSE)."""
    return (False, None) if top else _tag(e, FALSE)


def _draws(n: int):
    """n seeded (env, expression, sigma, binders) draws.  Half the
    expressions have `a` free, as under a binder, and half of the
    substitutions map onto images with `a` and `b` free, so renaming on
    capture is exercised; `random_expr` binds `a` and `b` again inside,
    so shadowing is too."""
    for k in range(n):
        rng = rng_for(19, k)
        env = random_env(rng, with_defs=k % 4 != 0, modal_defs=k % 3 != 0)
        outer = ("a",) if k % 2 else ()
        e = random_expr(rng, env, depth=1 + k % 4, binders=outer)
        pool = env.rigid_vars + outer
        free = ("a", "b") if k % 4 < 2 else ()
        sigma = {x: random_expr(rng, env, depth=1, binders=free)
                 for x in pool if rng.random() < 0.6}
        binders = (("x", "a", "x"), ("a",), ())[k % 3]
        yield env, e, sigma, binders


def test_walkers_agree_with_the_class_pattern_reference():
    nodes = 0
    for env, e, sigma, binders in _draws(3000):
        assert printer.print_expr(e) == reference.print_expr(e)
        assert syntax.free_rigid_vars(e) == reference.free_rigid_vars(e)
        assert (syntax.alpha_key(e, binders)
                == repr(reference.alpha_key(e, binders)))
        assert syntax.is_rigid(e, env) == reference.is_rigid(e, env)
        assert (syntax.substitute(e, sigma)
                == reference.substitute(e, sigma))
        assert (syntax.expand_definitions(e, env)
                == reference.expand_definitions(e, env))
        assert ([sub for sub, _ in syntax.nodes(e)]
                == list(reference.walk(e)))
        for sub in reference.walk(e):
            nodes += 1
            assert syntax.children(sub) == reference.children(sub)
            assert (syntax.rewrite(sub, _tag_children, True)
                    == reference.map_children(sub, _tag, FALSE))
    assert nodes > 12_000


@dataclass(frozen=True, slots=True)
class Stray(Expression):
    """A node kind no dispatcher knows."""


ENV = DefinitionEnvironment.build(ops={"0": 0}, rigid=("x",), flex=("v",))
MODEL = KripkeModel((0, 1), 0, 1, {"0": {(): 0}}, {"x": 0}, (0,),
                    frozenset({(0, 0)}), {("v", 0): 0})
STRUCTURE = FOLStructure((0, 1), 0, 1, {"0": {(): 0}}, {"x": 0, "v": 0})

DISPATCHERS = {
    "children": syntax.children,
    "rewrite": lambda e: syntax.rewrite(e, lambda e, c: None, None),
    "nodes": lambda e: list(syntax.nodes(e)),
    "free_rigid_vars": syntax.free_rigid_vars,
    "free_flex_vars": syntax.free_flex_vars,
    "substitute": lambda e: syntax.substitute(e, {"x": FALSE}),
    "alpha_key": syntax.alpha_key,
    "expand_definitions": lambda e: syntax.expand_definitions(e, ENV),
    "is_rigid": lambda e: syntax.is_rigid(e, ENV),
    "contains_node": lambda e: syntax.contains_node(e, Nabla),
    "signature": lambda e: syntax.signature([e], ENV),
    "validate": lambda e: ENV.extended(
        definitions=[Definition("d", (), e)]),
    "print_expr": printer.print_expr,
    "coalesce_fol": lambda e: coalesce_fol(e, ENV, SymbolTable(ENV)),
    "rewrite_rigid_box": lambda e: rewrite_rigid_box(e, ENV),
    "coalesce_ml": lambda e: coalesce_ml(e, ENV, AtomTable(ENV)),
    "stratify": lambda e: stratify((), e, ENV),
    "emit_smt": lambda e: emit_smt(FolIR({}, (), (), (), e)),
    "emit_tptp": lambda e: emit_tptp(FolIR({}, (), (), (), e)),
    "leibniz": lambda e: _vars_in_non_leibniz_positions(e, {}),
    "distribute_prime": lambda e: distribute_prime(e, ENV),
    "coalesce_action": lambda e: coalesce_action(e, PrimedVars(ENV)),
    "compile_lanes": lambda e: compile_lanes(e, ENV, {}),
    "eval_expr": lambda e: eval_expr(MODEL, 0, e, ENV),
    "eval_fol": lambda e: eval_fol(STRUCTURE, e),
    "eval_ml": lambda e: eval_ml(MODEL, 0, e),
    "emit_mlseq": lambda e: emit_mlseq(MLSequent((), e)),
    "prove_ml": lambda e: prove_ml(MLSequent((), e)),
    "find_countermodel": lambda e: find_countermodel(
        Obligation((), e, ENV), SearchBounds(2, 1)),
}


SHAPES = {"top": Stray(), "under-implies": Implies(Stray(), FALSE),
          "under-forall": Forall("x", Stray())}
# `children` looks at one node only, and the propositional views reject
# a quantifier before they reach its body.
CASES = [(name, where) for name in DISPATCHERS for where in SHAPES
         if where == "top"
         or name != "children"
         and not (where == "under-forall"
                  and name in ("eval_ml", "emit_mlseq", "prove_ml"))]


@pytest.mark.parametrize("name, where", CASES)
def test_unknown_node_kind_is_an_internal_error(name, where):
    with pytest.raises(InternalError):
        DISPATCHERS[name](SHAPES[where])


@functools.cache
def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_no_class_pattern_dispatch_in_the_package():
    # Dispatch is on `type(e) is ...`: a `match` on node classes costs
    # about twice as much per node (see the syntax module docstring).
    found = [f"{module}:{node.lineno}"
             for module, tree in _package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Match)]
    assert found == []


def test_nodes_hash_by_their_fields_without_a_dict():
    # Each node kind is a slotted record, which hashes by its compared
    # fields: no class of the package but `Record` defines or installs a
    # `__hash__`, and a base class without `__slots__` would give every
    # node a dict.
    found = [f"{module}:{node.lineno}"
             for module, tree in _package_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "__hash__"
             or isinstance(node, ast.Name) and node.id == "__hash__"
             or isinstance(node, ast.Attribute) and node.attr == "__hash__"]
    assert found == [
        f"syntax.py:{syntax.Record.__hash__.__code__.co_firstlineno}"]
    assert Expression.__slots__ == syntax.Record.__slots__ == ()
    x = RigidVar("x")
    nodes = [x, FlexVar("v"), OpApp("f", (x,)), DefApp("d", (x,)),
             Eq(x, x), FALSE, Implies(FALSE, FALSE), Forall("a", FALSE),
             Nabla(FALSE), Prime(FALSE)]
    assert {type(e).__name__ for e in nodes} == {
        c.__name__ for c in Expression.__subclasses__()
        if c.__module__ == syntax.__name__}
    assert [e for e in nodes if hasattr(e, "__dict__")] == []


def _package_classes() -> list[type]:
    """The classes defined at the top of the package's modules."""
    mods = [importlib.import_module(f"foml.{path.stem}")
            for path in sorted(SRC.glob("*.py"))]
    return [obj for mod in mods for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__]


# The package's dataclasses, each rebuilt with `dataclasses.replace` by a
# caller outside the package.
DATACLASSES = {"Obligation", "KripkeModel", "CoalescedFol", "CoalescedMl"}


def test_records_are_slotted_classes_over_record():
    # `@dataclass` compiles its methods at import, for each class; a
    # record subclasses `Record` instead, which has them written once.
    decorated = {node.name for tree in _package_trees().values()
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for d in node.decorator_list
                 if "dataclass" in ast.unparse(d)}
    assert decorated == DATACLASSES
    # A class has fields when it names its value's parts in
    # `__match_args__` or declares them as annotations.
    with_fields = [c for c in _package_classes()
                   if (getattr(c, "__match_args__", ())
                       or "__annotations__" in vars(c))
                   and c.__name__ not in DATACLASSES
                   and not issubclass(c, tuple)]
    assert len(with_fields) >= 30
    assert [c for c in with_fields if not issubclass(c, syntax.Record)
            or any("__slots__" not in vars(k) or "__dict__" in k.__slots__
                   for k in c.__mro__[:-1])] == []


# The writes to a record's field outside the `__init__` of its class: the
# free-variable cache of nodes, and the fuzz report's count.
FIELD_WRITERS = {"syntax.py:_fill_free": {"_free"},
                 "gen.py:run_fuzz": {"iterations"}}


def test_node_fields_are_assigned_only_where_nodes_are_built():
    # Records are not frozen (a frozen constructor costs about twice as
    # much), so this scan keeps every other write to a record's field,
    # and every `setattr`, out of the package: a class's `__init__`
    # assigns `self`'s attributes, and no other code assigns a name that
    # is a field of a record, save FIELD_WRITERS.
    records = [cls for cls in _package_classes()
               if issubclass(cls, syntax.Record) and cls.__slots__]
    names = {name for cls in records for name in cls.__slots__}
    inits: dict[str, set[str]] = {}
    elsewhere, found = set(), []

    def scan(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Attribute) and child.attr in names
                  and isinstance(child.ctx, (ast.Store, ast.Del))):
                where = f"{module}:{scope}"
                if (scope.endswith(".__init__")
                        and isinstance(child.ctx, ast.Store)
                        and isinstance(child.value, ast.Name)
                        and child.value.id == "self"):
                    inits.setdefault(where, set()).add(child.attr)
                elif child.attr in FIELD_WRITERS.get(where, ()):
                    elsewhere.add(where)
                else:
                    found.append(f"{module}:{child.lineno}")
            elif (isinstance(child, ast.Name)
                  and child.id in ("setattr", "delattr")
                  or isinstance(child, ast.Attribute)
                  and child.attr in ("__setattr__", "__delattr__")):
                found.append(f"{module}:{child.lineno}")
            scan(child, module, inner)

    for module, tree in _package_trees().items():
        scan(tree, module, "")
    assert found == []
    assert elsewhere == set(FIELD_WRITERS)
    # each record's `__init__` assigns every field of its class
    module = {cls: cls.__module__.rsplit(".", 1)[1] + ".py"
              for cls in records}
    assert {cls: inits.get(f"{module[cls]}:{cls.__qualname__}.__init__")
            for cls in records} == {cls: set(cls.__slots__)
                                    for cls in records}


# Top-level definitions of the package that nothing in it names, each
# with its user outside the package.
OUTSIDE_USERS = {
    "countermodel_state": "bench/",
    "kripke_as_propmodel": "bench/",
    "free_flex_vars": "bench/",
    "encoding_satisfied": "bench/",
    "random_ml_sequent": "tests/",
}


def test_every_top_level_definition_has_a_user():
    # A top-level `def` or `class` must be named (as an `ast.Name` or an
    # `ast.Attribute`) outside its own body somewhere in the package, be
    # exported from `foml/__init__.py`, or be listed above with its user.
    trees = _package_trees()
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named, defined = set(), []
    for module, tree in trees.items():
        for top in tree.body:
            refs = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(top)
                    if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((top.name, f"{module}:{top.lineno}"))
                refs.discard(top.name)
            named |= refs
    unused = [(name, where) for name, where in defined
              if name not in named and name not in exported]
    assert sorted(name for name, _ in unused) == sorted(OUTSIDE_USERS), \
        unused


# The functions of the package that call themselves by name, qualified
# by the functions they are nested in: the walkers that still take a
# stack frame per tree level.  Every rewriting pass and every scan runs on
# `syntax.rewrite` or `syntax.nodes` instead, which keep their own stack,
# as do `alpha_key`, `is_rigid` and the renderers (`print_expr` and the
# SMT and TPTP `emit._render`).
RECURSIVE = {
    "_evaluate", "_lanes", "random_expr.draw", "random_ml_formula", "_open",
}


def test_only_the_listed_walkers_recurse():
    found = set()

    def scan(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Name)
                        and n.func.id == child.name
                        for n in ast.walk(child)):
                    found.add(name)
                scan(child, name + ".")
            else:
                scan(child, prefix)

    for tree in _package_trees().values():
        scan(tree, "")
    assert found == RECURSIVE

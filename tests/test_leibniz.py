from foml import (
    DefinitionEnvironment,
    Definition,
    STAR,
    classify_args,
    compute_leibniz,
)
from foml.gen import random_env, rng_for
from foml.leibniz import format_table
from foml.semantics import eval_expr
from foml.gen import random_model
from foml.syntax import (
    DefApp,
    Eq,
    FlexVar,
    Forall,
    Implies,
    Nabla,
    OpApp,
    Prime,
    RigidVar,
    exists_,
    expand_definitions,
    contains_node,
    free_rigid_vars,
)


def env_with(*defs):
    return DefinitionEnvironment.build(
        ops={"0": 0, "f": 1}, rigid=("x", "y"), flex=("u", "v"),
        definitions=defs)


CST = Definition(
    "cst", ("p",),
    exists_("q", Nabla(Eq(RigidVar("p"), RigidVar("q")))))


class TestComputeLeibniz:
    def test_cst_is_not_leibniz(self):
        table = compute_leibniz(env_with(CST))
        assert table["cst"] == (False,)

    def test_identity_is_leibniz(self):
        ident = Definition("id", ("p",), RigidVar("p"))
        assert compute_leibniz(env_with(ident))["id"] == (True,)

    def test_mixed_positions(self):
        g = Definition(
            "gd", ("p", "q"),
            Implies(Eq(RigidVar("p"), OpApp("0")),
                    Nabla(Eq(RigidVar("q"), OpApp("0")))))
        table = compute_leibniz(env_with(g))
        assert table["gd"] == (True, False)
        # oracle: scan the definition expansion for parameters under a
        # modality
        bad = _params_under_modality(g.body)
        assert table["gd"] == tuple(p not in bad for p in g.params)

    def test_prime_position_is_not_leibniz(self):
        d = Definition("nxt", ("p",),
                       Eq(Prime(FlexVar("v")), RigidVar("p")))
        table = compute_leibniz(env_with(d))
        assert table["nxt"] == (True,)
        d2 = Definition("nxt2", ("p",), Prime(Eq(RigidVar("p"),
                                                 FlexVar("v"))))
        assert compute_leibniz(env_with(d2))["nxt2"] == (False,)

    def test_shadowed_parameter_is_leibniz(self):
        d = Definition("sh", ("p",),
                       Forall("p", Nabla(Eq(RigidVar("p"),
                                            RigidVar("p")))))
        assert compute_leibniz(env_with(d))["sh"] == (True,)

    def test_modality_free_bodies_are_all_leibniz(self):
        for i in range(150):
            rng = rng_for(41, i)
            env = random_env(rng, modal_defs=False)
            table = compute_leibniz(env)
            for d in env.definitions:
                assert all(table[d.name]), d

    def test_exact_against_expansion_for_flat_definitions(self):
        # bodies without nested definition applications: the inductive
        # computation coincides with scanning for parameters under a
        # modality
        for i in range(200):
            rng = rng_for(42, i)
            env = random_env(rng)
            table = compute_leibniz(env)
            for d in env.definitions:
                if contains_node(d.body, DefApp):
                    continue
                bad = _params_under_modality(d.body)
                assert table[d.name] == tuple(
                    p not in bad for p in d.params)

    def test_leibniz_implies_not_under_modality_in_expansion(self):
        # one-directional in general: a parameter that survives to the
        # expansion under a modality is never classified Leibniz
        for i in range(200):
            rng = rng_for(43, i)
            env = random_env(rng)
            table = compute_leibniz(env)
            for d in env.definitions:
                expansion = expand_definitions(
                    DefApp(d.name, tuple(RigidVar(p) for p in d.params)),
                    env)
                bad = _params_under_modality(expansion)
                for p, leib in zip(d.params, table[d.name]):
                    if leib:
                        assert p not in bad


def _params_under_modality(e, bound=frozenset()):
    match e:
        case Nabla(b) | Prime(b):
            return set(free_rigid_vars(b)) - bound
        case Forall(var, b):
            return _params_under_modality(b, bound | {var})
        case _:
            out = set()
            from foml.syntax import children

            for c in children(e):
                out |= _params_under_modality(c, bound)
            return out


class TestClassifyArgs:
    def test_flexible_argument_stays_concrete(self):
        env = env_with(CST)
        table = compute_leibniz(env)
        vec = classify_args("cst", (FlexVar("u"),), table, env)
        assert vec == (FlexVar("u"),)

    def test_rigid_argument_becomes_star(self):
        env = env_with(CST)
        table = compute_leibniz(env)
        vec = classify_args("cst", (RigidVar("x"),), table, env)
        assert vec == (STAR,)

    def test_leibniz_position_becomes_star_even_for_flexibles(self):
        ident = Definition("id", ("p",), RigidVar("p"))
        env = env_with(ident)
        table = compute_leibniz(env)
        vec = classify_args("id", (FlexVar("v"),), table, env)
        assert vec == (STAR,)


class TestConsequentImplication:
    def test_equal_arguments_give_equal_applications(self):
        # when the replaced argument is rigid (with a rigid replacement)
        # or the position is Leibniz, equality of arguments implies
        # equality of the applications, on every swept model
        env = env_with(
            CST, Definition("id", ("p",), RigidVar("p")))
        table = compute_leibniz(env)
        cases = [
            ("cst", (RigidVar("x"),), (RigidVar("y"),)),   # rigid args
            ("id", (FlexVar("u"),), (FlexVar("v"),)),      # Leibniz pos
        ]
        for i in range(120):
            rng = rng_for(44, i)
            m = random_model(rng, env, max_universe=2, max_states=2,
                             need_prime=True)
            for dname, a1, a2 in cases:
                for w in m.states:
                    eq = eval_expr(m, w, Eq(a1[0], a2[0]), env)
                    if eq != m.tt:
                        continue
                    lhs = eval_expr(m, w, DefApp(dname, a1), env)
                    rhs = eval_expr(m, w, DefApp(dname, a2), env)
                    assert lhs == rhs


def test_format_table():
    env = env_with(
        CST,
        Definition("gd", ("p", "q"),
                   Implies(Eq(RigidVar("p"), OpApp("0")),
                           Nabla(Eq(RigidVar("q"), OpApp("0"))))))
    assert format_table(compute_leibniz(env)) == "cst: N\ngd: L N"

"""First-order modal logic workbench.

Translations of modal proof obligations into first-order logic and into
propositional modal logic by coalescing (abstracting subexpressions behind
fresh symbols, identified up to alpha-equivalence), a finite Kripke-model
evaluator and bounded countermodel search serving as the semantic oracle,
Leibniz-position analysis for defined operators, a prime-modality pipeline
for action formulas, a decision procedure for the propositional target
logic, and emitters to SMT-LIB 2 and TPTP.
"""

from .actions import (
    SafetySpec,
    coalesce_action,
    distribute_prime,
    safety_obligations,
    translate_action,
)
from .coalesce import (
    SymbolTable,
    build_witness_structure,
    coalesce_fol,
    coalesce_obligation_fol,
    rewrite_rigid_box,
)
from .coalesce_ml import (
    AtomTable,
    build_witness_propmodel,
    coalesce_ml,
    coalesce_obligation_ml,
    hypotheses,
)
from .leibniz import STAR, classify_args, compute_leibniz
from .models import (
    FOLStructure,
    KripkeModel,
    parse_model,
    serialize_model,
)
from .parser import ProblemError, parse_expr, parse_file, parse_problem
from .printer import print_expr, print_problem
from .prover import (
    Countermodel,
    MLSequent,
    Proved,
    ProverLimits,
    ResourceOut,
    prove_ml,
)
from .search import (
    SearchBounds,
    enumerate_models,
    enumerate_propmodels,
    find_countermodel,
    find_fol_countermodel,
)
from .semantics import eval_expr, eval_fol, eval_ml
from .syntax import (
    FALSE,
    DefApp,
    Definition,
    DefinitionEnvironment,
    Eq,
    Expression,
    FlexVar,
    FomlError,
    Forall,
    Implies,
    Nabla,
    Obligation,
    OpApp,
    Prime,
    RigidVar,
    alpha_equal,
    and_,
    expand_definitions,
    free_rigid_vars,
    iff_,
    is_rigid,
    not_,
    or_,
    substitute,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""SQL → MAL compiler.

Lowers a parsed :class:`~repro.sql.ast_nodes.Select` to a MAL
:class:`~repro.kernel.mal.Program`, following the classic column-store plan
shape: bind columns, derive candidate lists with selections, project, join
via oid pairs, group/aggregate, order, slice, build the result set.

Two entry points:

* :func:`compile_select` — one-time queries over catalog tables (and
  baskets read with table semantics);
* :func:`compile_continuous` — continuous queries containing basket
  expressions; produces a :class:`MalContinuousPlan` whose program takes
  basket snapshots as inputs and reports which snapshot positions the
  basket expression *consumed* (paper §2.6 side-effect semantics).

Invariant maintained throughout: every relation column variable holds a BAT
with a dense head starting at 0, so candidate lists, group extents and sort
permutations are interchangeable position sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BindError, SqlError, TypeMismatchError
from ..kernel.calc import ARITHMETIC, COMPARISONS
from ..kernel.catalog import Catalog
from ..kernel.interpreter import OPCODES, MalInterpreter
from ..kernel.mal import Arg, Const, Program, ResultSet, Var
from ..kernel.types import AtomType, common_type
from .ast_nodes import (
    BasketExpr,
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    JoinSource,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Source,
    Star,
    SubquerySource,
    TableSource,
    UnaryOp,
    UnionSelect,
)
from .binder import BoundColumn, Relation

__all__ = [
    "CompiledQuery",
    "compile_union",
    "MalContinuousPlan",
    "compile_select",
    "compile_continuous",
]

TIME_COLUMN = "dc_time"
AGGREGATES = {"sum": "sum", "count": "count", "avg": "avg", "min": "min",
              "max": "max"}


@dataclass
class BasketInput:
    """A basket read through a basket expression in a continuous query."""

    basket: str  # catalog basket name (lower-cased)
    alias: str  # the AS alias of the basket expression
    consumed_var: str  # program variable holding consumed snapshot positions
    result_constrained: bool = False  # inner LIMIT: re-fire while consuming


@dataclass
class CompiledQuery:
    """A compiled SELECT: the program plus its interface metadata."""

    program: Program
    output_names: List[str]
    output_atoms: List[AtomType]
    basket_inputs: List[BasketInput] = field(default_factory=list)

    @property
    def is_continuous(self) -> bool:
        return bool(self.basket_inputs)

    def verify(self, catalog, expected_output=None):
        """Run the static verifier over this plan; returns diagnostics.

        Convenience wrapper over
        :func:`repro.analysis.verifier.verify_continuous` (lazy import —
        the compiler itself never depends on the analysis package).
        """
        from ..analysis.verifier import verify_continuous

        return verify_continuous(self, catalog, expected_output)


class MalContinuousPlan:
    """A factory plan backed by a compiled MAL program.

    Each activation binds the current basket snapshots as program inputs,
    executes the program, and reports the consumed positions recorded by
    the basket expressions.  ``stages`` is the one compiled program the
    plan runs (an incremental circuit runs one or two).
    """

    weighted = False

    def __init__(
        self,
        compiled: CompiledQuery,
        interpreter: MalInterpreter,
        output_basket: str,
    ):
        self.compiled = compiled
        self.stages = [compiled]
        self.interpreter = interpreter
        self.output_basket = output_basket.lower()
        # per basket input, the program variable of each snapshot column
        # (``alias.column``); a basket's columns are fixed, so the names
        # are built on the first activation and reused
        self._env_names: Optional[List[List[str]]] = None

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        return list(zip(self.compiled.output_names, self.compiled.output_atoms))

    def evaluate(
        self, snapshots, consumed: Dict[str, np.ndarray]
    ) -> ResultSet:
        """Run the program over ``snapshots``; records each basket's
        consumed positions into ``consumed`` and returns the result."""
        inputs = self.compiled.basket_inputs
        if self._env_names is None:
            self._env_names = [
                [f"{b.alias}.{name}" for name in snapshots[b.basket].names]
                for b in inputs
            ]
        env: Dict[str, Any] = {}
        for binding, names in zip(inputs, self._env_names):
            env.update(zip(names, snapshots[binding.basket].bats))
        final = self.interpreter.execute(self.compiled.program, env)
        for binding in inputs:
            consumed[binding.basket] = np.asarray(
                final[binding.consumed_var], dtype=np.int64
            )
        return final[self.compiled.program.output]

    def run(self, snapshots):
        from ..core.factory import PlanOutput

        output = PlanOutput()
        result = self.evaluate(snapshots, output.consumed)
        if result.count:
            output.results[self.output_basket] = result
        return output

    def describe(self) -> str:
        return self.compiled.program.render()

    # -- durability: a MAL plan re-binds fresh snapshots every
    # activation, so there is nothing to checkpoint or restore
    def export_state(self):
        return None

    def import_state(self, blob) -> None:
        if blob is not None:
            raise SqlError(
                "MalContinuousPlan is stateless but a checkpoint "
                "carried plan state"
            )


# ======================================================================
# compiler core
# ======================================================================
class _SelectCompiler:
    """Compiles one Select into instructions appended to a shared program."""

    def __init__(
        self,
        catalog: Catalog,
        program: Program,
        basket_inputs: List[BasketInput],
        allow_baskets: bool,
    ):
        self.catalog = catalog
        self.prog = program
        self.basket_inputs = basket_inputs
        self.allow_baskets = allow_baskets

    def _typed(
        self, module: str, fn: str, args: Sequence[Arg], *items: Any
    ) -> Tuple[str, AtomType]:
        """Emit ``module.fn(args)``, typed by the opcode's own atom rule
        over ``items`` (see :class:`~repro.kernel.interpreter.Opcode`)."""
        atom = _atom_rule(f"{module}.{fn}", *items)
        return self.prog.emit(module, fn, list(args)), atom

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------
    def compile(self, select: Select) -> Tuple[Relation, List[str]]:
        """Compile; returns (output relation, output names).

        Each logical phase opens a :meth:`Program.node` scope, so every
        emitted instruction carries a back-pointer to the plan operator it
        implements — the EXPLAIN ANALYZE aggregation key.
        """
        if select.window is not None:
            raise SqlError(
                "WINDOW applies only to the outer SELECT of a continuous query"
            )
        with self.prog.node("from"):
            rel, where = self._compile_sources(select.sources, select.where)
        if where is not None:
            with self.prog.node("where"):
                rel = self._compile_filter(rel, where)
        has_aggregates = self._uses_aggregates(select)
        pre_projection: Optional[Relation] = None
        if has_aggregates or select.group_by:
            with self.prog.node("aggregate"):
                rel, names = self._compile_aggregation(rel, select)
        else:
            pre_projection = rel
            with self.prog.node("project"):
                rel, names = self._compile_projection(rel, select.items)
        if select.distinct:
            with self.prog.node("distinct"):
                rel = self._compile_distinct(rel)
            pre_projection = None  # dedup breaks row alignment
        if select.order_by:
            with self.prog.node("order by"):
                rel = self._compile_order(
                    rel, names, select.order_by, pre_projection
                )
        if select.limit is not None:
            with self.prog.node("limit"):
                rel = self._compile_limit(rel, select.limit)
        return rel, names

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _compile_sources(
        self, sources: Sequence[Source], where: Optional[Expr]
    ) -> Tuple[Relation, Optional[Expr]]:
        """Join the FROM items left to right; returns (relation, rest of WHERE).

        Each comma-joined item takes one WHERE conjunct ``a.x = b.y``
        linking it to the items before it as an equi-join key; the other
        conjuncts stay in WHERE.  Without such a conjunct it is a cross
        product.
        """
        if not sources:
            raise BindError("FROM clause is empty")
        relations = [self._compile_source(s) for s in sources]
        rel = relations[0]
        for other in relations[1:]:
            eq = None if where is None else self._find_equi_pair(
                where, rel, other
            )
            if eq is None:
                rel = self._cross_join(rel, other)
            else:
                lcol, rcol, where = eq
                rel = self._equi_join(rel, other, lcol, rcol)
        return rel, where

    def _compile_source(self, source: Source) -> Relation:
        if isinstance(source, TableSource):
            return self._compile_table(source)
        if isinstance(source, BasketExpr):
            return self._compile_basket_expr(source)
        if isinstance(source, SubquerySource):
            inner = _SelectCompiler(
                self.catalog, self.prog, self.basket_inputs,
                self.allow_baskets,
            )
            with self.prog.node("subquery"):
                rel, names = inner.compile(source.select)
            alias = source.binding_name
            return Relation(
                [
                    BoundColumn(alias, n.lower(), c.var, c.atom)
                    for n, c in zip(names, rel)
                ]
            )
        if isinstance(source, JoinSource):
            return self._compile_join(source)
        raise BindError(f"unsupported FROM item {type(source).__name__}")

    def _compile_table(self, source: TableSource) -> Relation:
        table = self.catalog.get(source.name)
        alias = source.binding_name
        rel = Relation()
        with self.prog.node(f"scan {table.name}"):
            # Rebase to a dense-0 head so positions == candidate oids
            # throughout the plan (see module docstring invariant).
            first = self.prog.emit(
                "sql", "bind",
                [Const(table.name), Const(table.schema.columns[0].name)],
            )
            cands = self.prog.emit("algebra", "densecands", [Var(first)])
            for col in table.schema:
                bound = self.prog.emit(
                    "sql", "bind", [Const(table.name), Const(col.name)]
                )
                rebased = self.prog.emit(
                    "algebra", "projection", [Var(cands), Var(bound)]
                )
                rel.add(
                    BoundColumn(
                        alias,
                        col.name.lower(),
                        rebased,
                        col.atom,
                        hidden=(col.name.lower() == TIME_COLUMN),
                    )
                )
        return rel

    def _compile_basket_expr(self, source: BasketExpr) -> Relation:
        """Compile ``[select ...] as alias``: snapshot scan + consumption."""
        if not self.allow_baskets:
            raise BindError(
                "basket expressions are only allowed in continuous queries"
            )
        inner = source.select
        if (
            len(inner.sources) != 1
            or not isinstance(inner.sources[0], TableSource)
        ):
            raise BindError(
                "a basket expression must read exactly one basket"
            )
        table_src = inner.sources[0]
        basket = self.catalog.get(table_src.name)
        if not basket.is_basket:
            raise BindError(
                f"{table_src.name!r} is not a basket; basket expressions "
                "apply to baskets/streams only"
            )
        if inner.group_by or inner.having or inner.order_by or inner.window:
            raise BindError(
                "basket expressions support select-project-filter (and "
                "LIMIT) only"
            )
        inner_alias = table_src.binding_name
        # Snapshot columns arrive as program inputs "<outer alias>.<col>".
        outer_alias = source.binding_name
        # one plan node per basket expression: its selections/limits are
        # the window predicate, reported as a unit by EXPLAIN ANALYZE
        self.prog.begin_node(f"basket {basket.name}")
        rel = Relation()
        for col in basket.schema:
            var = f"{outer_alias}.{col.name.lower()}"
            self.prog.inputs.append(var)
            rel.add(
                BoundColumn(
                    inner_alias,
                    col.name.lower(),
                    var,
                    col.atom,
                    hidden=(col.name.lower() == TIME_COLUMN),
                )
            )
        # WHERE inside the brackets = the predicate window: it decides
        # which snapshot positions are referenced (and hence consumed).
        if inner.where is not None:
            filtered, consumed_var = self._filter_with_cands(rel, inner.where)
        else:
            consumed_var = self.prog.emit(
                "algebra", "densecands", [Var(rel.first_var())]
            )
            filtered = rel
        if inner.limit is not None:
            # result-set-constraint window (§2.6): the basket expression
            # references (and consumes) at most LIMIT tuples per firing
            consumed_var = self.prog.emit(
                "algebra", "firstn", [Var(consumed_var), Const(inner.limit)]
            )
            filtered = self._compile_limit(filtered, inner.limit)
        self.basket_inputs.append(
            BasketInput(
                basket.name.lower(),
                outer_alias,
                consumed_var,
                result_constrained=inner.limit is not None,
            )
        )
        # consumed tuples must actually be the ones exposed through S:
        projected = Relation()
        for col in filtered:
            projected.add(
                BoundColumn(
                    outer_alias, col.name, col.var, col.atom, col.hidden
                )
            )
        # apply the inner select list (usually *)
        inner_rel, names = self._apply_select_items(
            projected, inner.items, default_alias=outer_alias
        )
        # keep the implicit timestamp reachable through the alias even
        # though * does not expand it (queries may order/window on it)
        present = {c.name for c in inner_rel.columns}
        for col in projected:
            if col.hidden and col.name not in present:
                inner_rel.add(col)
        self.prog.end_node()
        return inner_rel

    def _compile_join(self, source: JoinSource) -> Relation:
        with self.prog.node("join"):
            return self._compile_join_body(source)

    def _compile_join_body(self, source: JoinSource) -> Relation:
        left = self._compile_source(source.left)
        right = self._compile_source(source.right)
        if source.kind == "cross" or source.condition is None:
            return self._cross_join(left, right)
        # Decompose the ON condition into equi pairs + residual.
        eq = self._find_equi_pair(source.condition, left, right)
        if eq is None:
            rel = self._cross_join(left, right)
            return self._compile_filter(rel, source.condition)
        lcol, rcol, residual = eq
        if source.kind == "left":
            raise BindError(
                "LEFT JOIN projection of unmatched rows is not supported "
                "yet; use INNER JOIN"
            )
        rel = self._equi_join(left, right, lcol, rcol)
        if residual is not None:
            rel = self._compile_filter(rel, residual)
        return rel

    def _find_equi_pair(self, condition: Expr, left: Relation, right: Relation):
        """Extract one ``l.col = r.col`` conjunct; returns residual rest.

        A reference that resolves on both sides is ambiguous: its conjunct
        stays in the residual, whose binding reports it.
        """
        conjuncts = _split_and(condition)
        for i, conj in enumerate(conjuncts):
            if not (
                isinstance(conj, BinaryOp)
                and conj.op == "=="
                and isinstance(conj.left, ColumnRef)
                and isinstance(conj.right, ColumnRef)
            ):
                continue
            a = _resolve_side(conj.left, left, right)
            b = _resolve_side(conj.right, left, right)
            if a is None or b is None or a[0] == b[0]:
                continue
            lcol, rcol = (a[1], b[1]) if a[0] == "l" else (b[1], a[1])
            return lcol, rcol, _join_and(conjuncts[:i] + conjuncts[i + 1 :])
        return None

    def _equi_join(
        self, left: Relation, right: Relation, lcol: BoundColumn,
        rcol: BoundColumn,
    ) -> Relation:
        """Inner equi-join on ``lcol = rcol`` via ``algebra.join``."""
        loids, roids = self.prog.emit(
            "algebra", "join", [Var(lcol.var), Var(rcol.var)], results=2
        )
        return self._project_pairs(left, right, loids, roids)

    def _cross_join(self, left: Relation, right: Relation) -> Relation:
        """Cross product via position fan-out (small sides expected)."""
        lvar, rvar = left.first_var(), right.first_var()
        loids, roids = self.prog.emit(
            "algebra", "crossproduct", [Var(lvar), Var(rvar)], results=2
        )
        return self._project_pairs(left, right, loids, roids)

    def _project_pairs(
        self, left: Relation, right: Relation, loids: str, roids: str
    ) -> Relation:
        """Both sides' columns fetched through a join's oid pairs."""
        rel = Relation()
        for oids, side in ((loids, left), (roids, right)):
            for col in side:
                var = self.prog.emit(
                    "algebra", "projection", [Var(oids), Var(col.var)]
                )
                rel.add(BoundColumn(col.qualifier, col.name, var, col.atom,
                                    col.hidden))
        return rel

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def _compile_filter(self, rel: Relation, predicate: Expr) -> Relation:
        filtered, _ = self._filter_with_cands(rel, predicate)
        return filtered

    def _filter_with_cands(
        self, rel: Relation, predicate: Expr
    ) -> Tuple[Relation, str]:
        """Filter ``rel``; returns (new relation, candidate var).

        Simple conjuncts (column ⟨op⟩ literal, BETWEEN) become kernel
        selections threaded through a candidate list; the residual is
        evaluated as a boolean column.  The returned candidate variable
        holds the qualifying positions of the *input* relation — the
        consumption set for basket expressions.
        """
        conjuncts = _split_and(predicate)
        cands: Optional[str] = None
        residual: List[Expr] = []
        for conj in conjuncts:
            emitted = self._try_simple_select(rel, conj, cands)
            if emitted is not None:
                cands = emitted
            else:
                residual.append(conj)
        if residual:
            rest = _join_and(residual)
            assert rest is not None
            if cands is not None:
                rel_mid = self._project_all(rel, cands)
            else:
                rel_mid = rel
            bool_var, atom = self._expr(rel_mid, rest)
            if atom is not AtomType.BOOL:
                raise BindError("WHERE predicate must be boolean")
            mask_cands = self.prog.emit(
                "algebra", "mask2cand", [Var(bool_var)]
            )
            final_rel = self._project_all(rel_mid, mask_cands)
            # compose candidates: positions-of-positions
            if cands is not None:
                total = self.prog.emit(
                    "algebra", "compose", [Var(cands), Var(mask_cands)]
                )
            else:
                total = mask_cands
            return final_rel, total
        if cands is None:
            # constant-true corner (no conjuncts?) — all positions
            cands = self.prog.emit(
                "algebra", "densecands", [Var(rel.first_var())]
            )
            return rel, cands
        return self._project_all(rel, cands), cands

    def _try_simple_select(
        self, rel: Relation, conj: Expr, cands: Optional[str]
    ) -> Optional[str]:
        """Emit a kernel selection for a simple conjunct, if possible."""
        cand_arg = Const(None) if cands is None else Var(cands)
        if isinstance(conj, Between) and not conj.negated:
            if isinstance(conj.operand, ColumnRef) and _is_literal(conj.low) \
                    and _is_literal(conj.high):
                col = rel.resolve(conj.operand)
                return self.prog.emit(
                    "algebra",
                    "select",
                    [
                        Var(col.var),
                        cand_arg,
                        Const(_literal_value(conj.low)),
                        Const(_literal_value(conj.high)),
                        Const(True),
                        Const(True),
                        Const(False),
                    ],
                )
        if isinstance(conj, IsNull):
            if isinstance(conj.operand, ColumnRef):
                col = rel.resolve(conj.operand)
                fn = "selectnotnil" if conj.negated else "selectnil"
                return self.prog.emit(
                    "algebra", fn, [Var(col.var), cand_arg]
                )
        if isinstance(conj, Like):
            if isinstance(conj.operand, ColumnRef) and isinstance(
                conj.pattern, Literal
            ):
                col = rel.resolve(conj.operand)
                if col.atom is not AtomType.STR:
                    raise BindError("LIKE applies to string columns")
                return self.prog.emit(
                    "algebra",
                    "likeselect",
                    [Var(col.var), cand_arg, Const(conj.pattern.value),
                     Const(conj.negated)],
                )
        if isinstance(conj, BinaryOp) and conj.op in (
            "==", "!=", "<", "<=", ">", ">=",
        ):
            ref, lit, op = None, None, conj.op
            if isinstance(conj.left, ColumnRef) and _is_literal(conj.right):
                ref, lit = conj.left, conj.right
            elif isinstance(conj.right, ColumnRef) and _is_literal(conj.left):
                ref, lit = conj.right, conj.left
                op = _flip_op(op)
            if ref is not None:
                col = rel.resolve(ref)
                return self.prog.emit(
                    "algebra",
                    "thetaselect",
                    [Var(col.var), cand_arg, Const(op),
                     Const(_literal_value(lit))],
                )
        return None

    def _project_all(self, rel: Relation, cands: str) -> Relation:
        out = Relation()
        for col in rel:
            var = self.prog.emit(
                "algebra", "projection", [Var(cands), Var(col.var)]
            )
            out.add(
                BoundColumn(col.qualifier, col.name, var, col.atom, col.hidden)
            )
        return out

    # ------------------------------------------------------------------
    # projection (no aggregation)
    # ------------------------------------------------------------------
    def _apply_select_items(
        self,
        rel: Relation,
        items: Sequence[SelectItem],
        default_alias: Optional[str] = None,
    ) -> Tuple[Relation, List[str]]:
        out = Relation()
        names: List[str] = []
        for item in items:
            if isinstance(item.expr, Star):
                cols = (
                    rel.columns_of(item.expr.table)
                    if item.expr.table
                    else rel.visible()
                )
                for col in cols:
                    out.add(
                        BoundColumn(
                            default_alias or col.qualifier,
                            col.name,
                            col.var,
                            col.atom,
                        )
                    )
                    names.append(col.name)
                continue
            var, atom = self._expr(rel, item.expr)
            name = (item.alias or _default_name(item.expr, len(names))).lower()
            out.add(BoundColumn(default_alias, name, var, atom))
            names.append(name)
        if not names:
            raise BindError("select list is empty")
        return out, names

    def _compile_projection(
        self, rel: Relation, items: Sequence[SelectItem]
    ) -> Tuple[Relation, List[str]]:
        return self._apply_select_items(rel, items)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _uses_aggregates(self, select: Select) -> bool:
        exprs = [i.expr for i in select.items]
        if select.having is not None:
            exprs.append(select.having)
        return any(_contains_aggregate(e) for e in exprs)

    def _compile_aggregation(
        self, rel: Relation, select: Select
    ) -> Tuple[Relation, List[str]]:
        group_exprs = select.group_by
        if not group_exprs:
            return self._compile_scalar_aggregation(rel, select)
        # 1. group key columns
        key_vars: List[Tuple[str, str, AtomType]] = []  # (key, var, atom)
        grp_var: Optional[str] = None
        n_var: Optional[str] = None
        ext_var: Optional[str] = None
        for gexpr in group_exprs:
            var, atom = self._expr(rel, gexpr)
            key_vars.append((_expr_key(gexpr), var, atom))
            if grp_var is None:
                grp_var, ext_var, n_var = self.prog.emit(
                    "group", "group", [Var(var)], results=3
                )
            else:
                grp_var, ext_var, n_var = self.prog.emit(
                    "group", "subgroup", [Var(var), Var(grp_var)], results=3
                )
        assert grp_var and ext_var and n_var
        # 2. aggregate columns (unique by structural key)
        agg_vars: Dict[str, Tuple[str, AtomType]] = {}
        for agg in self._collect_aggregates(select):
            key = _expr_key(agg)
            if key in agg_vars:
                continue
            agg_vars[key] = self._emit_grouped_aggregate(
                rel, agg, grp_var, n_var
            )
        # 3. post-aggregation relation: keys projected through extents
        post = Relation()
        key_map: Dict[str, BoundColumn] = {}
        for key, var, atom in key_vars:
            kvar = self.prog.emit(
                "algebra", "projection", [Var(ext_var), Var(var)]
            )
            col = BoundColumn(None, f"__key_{len(key_map)}", kvar, atom)
            post.add(col)
            key_map[key] = col
        agg_map: Dict[str, BoundColumn] = {}
        for key, (var, atom) in agg_vars.items():
            col = BoundColumn(None, f"__agg_{len(agg_map)}", var, atom)
            post.add(col)
            agg_map[key] = col
        mapping = {**key_map, **agg_map}
        # 4. HAVING
        if select.having is not None:
            hvar, hatom = self._expr_over_groups(post, select.having, mapping)
            if hatom is not AtomType.BOOL:
                raise BindError("HAVING predicate must be boolean")
            cands = self.prog.emit("algebra", "mask2cand", [Var(hvar)])
            post = self._project_all(post, cands)
            mapping = {
                key: post.columns[i]
                for i, key in enumerate(list(key_map) + list(agg_map))
            }
        # 5. select list over grouped relation
        out = Relation()
        names: List[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                raise BindError("* cannot appear with GROUP BY")
            var, atom = self._expr_over_groups(post, item.expr, mapping)
            name = (item.alias or _default_name(item.expr, len(names))).lower()
            out.add(BoundColumn(None, name, var, atom))
            names.append(name)
        return out, names

    def _compile_scalar_aggregation(
        self, rel: Relation, select: Select
    ) -> Tuple[Relation, List[str]]:
        """Aggregates without GROUP BY: a single-row result."""
        names: List[str] = []
        atoms: List[AtomType] = []
        value_vars: List[str] = []
        for item in select.items:
            expr = item.expr
            if not isinstance(expr, FuncCall) or expr.name not in AGGREGATES:
                raise BindError(
                    "without GROUP BY the select list may contain only "
                    "aggregates"
                )
            var, atom = self._emit_scalar_aggregate(rel, expr)
            names.append(
                (item.alias or _default_name(expr, len(names))).lower()
            )
            atoms.append(atom)
            value_vars.append(var)
        result_var = self.prog.emit(
            "sql",
            "single_row",
            [Const(tuple(names)), Const(tuple(a.value for a in atoms))]
            + [Var(v) for v in value_vars],
        )
        # wrap: represent as relation of one-row columns for order/limit
        out = Relation()
        for i, (name, atom) in enumerate(zip(names, atoms)):
            cvar = self.prog.emit(
                "sql", "result_column", [Var(result_var), Const(i)]
            )
            out.add(BoundColumn(None, name, cvar, atom))
        return out, names

    def _collect_aggregates(self, select: Select) -> List[FuncCall]:
        out: List[FuncCall] = []
        exprs = [i.expr for i in select.items]
        if select.having is not None:
            exprs.append(select.having)
        for expr in exprs:
            _walk_aggregates(expr, out)
        return out

    def _emit_grouped_aggregate(
        self, rel: Relation, agg: FuncCall, grp_var: str, n_var: str
    ) -> Tuple[str, AtomType]:
        if agg.distinct:
            raise BindError("DISTINCT aggregates are not supported")
        if agg.star:
            name, avar, aatom = "count_star", rel.first_var(), None
        elif len(agg.args) != 1:
            raise BindError(f"{agg.name} takes exactly one argument")
        else:
            name = agg.name
            avar, aatom = self._expr(rel, agg.args[0])
        return self._typed(
            "aggr", f"sub{name}", [Var(avar), Var(grp_var), Var(n_var)],
            aatom, AtomType.OID, None,
        )

    def _emit_scalar_aggregate(
        self, rel: Relation, agg: FuncCall
    ) -> Tuple[str, AtomType]:
        if agg.distinct:
            raise BindError("DISTINCT aggregates are not supported")
        if agg.star:
            name, avar, aatom = "count_star", rel.first_var(), None
        elif len(agg.args) != 1:
            raise BindError(f"{agg.name} takes exactly one argument")
        else:
            name = agg.name
            avar, aatom = self._expr(rel, agg.args[0])
        return self._typed("aggr", name, [Var(avar)], aatom)

    def _expr_over_groups(
        self,
        post: Relation,
        expr: Expr,
        mapping: Dict[str, BoundColumn],
    ) -> Tuple[str, AtomType]:
        """Evaluate a select/having expression over the grouped relation.

        Aggregate calls and group-key expressions are replaced by their
        materialized columns; anything else must be built from those.
        """
        key = _expr_key(expr)
        if key in mapping:
            col = mapping[key]
            return col.var, col.atom
        if isinstance(expr, FuncCall) and expr.name in AGGREGATES:
            raise BindError(
                f"aggregate {expr.name} was not pre-computed (internal)"
            )
        if isinstance(expr, ColumnRef):
            raise BindError(
                f"column {expr.display()!r} must appear in GROUP BY or "
                "inside an aggregate"
            )
        if isinstance(expr, Literal):
            return self._const(post, expr.value)
        if isinstance(expr, UnaryOp):
            ovar, oatom = self._expr_over_groups(post, expr.operand, mapping)
            return self._apply_unary(expr.op, ovar, oatom)
        if isinstance(expr, BinaryOp):
            lvar, latom = self._expr_over_groups(post, expr.left, mapping)
            rvar, ratom = self._expr_over_groups(post, expr.right, mapping)
            return self._apply_binary(expr.op, lvar, latom, rvar, ratom)
        if isinstance(expr, Between):
            return self._expr_over_groups(
                post, _desugar_between(expr), mapping
            )
        raise BindError(
            f"unsupported expression over groups: {type(expr).__name__}"
        )

    # ------------------------------------------------------------------
    # distinct / order / limit
    # ------------------------------------------------------------------
    def _compile_distinct(self, rel: Relation) -> Relation:
        grp_var: Optional[str] = None
        ext_var = n_var = None
        for col in rel:
            if grp_var is None:
                grp_var, ext_var, n_var = self.prog.emit(
                    "group", "group", [Var(col.var)], results=3
                )
            else:
                grp_var, ext_var, n_var = self.prog.emit(
                    "group", "subgroup", [Var(col.var), Var(grp_var)],
                    results=3,
                )
        assert ext_var is not None
        return self._project_all(rel, ext_var)

    def _compile_order(
        self,
        rel: Relation,
        names: List[str],
        order_by: Sequence[OrderItem],
        pre_projection: Optional[Relation] = None,
    ) -> Relation:
        # ORDER BY may reference output aliases, output columns, or (as in
        # standard SQL) input columns not kept by the select list — the
        # pre-projection relation is row-aligned with the output, so its
        # columns are valid sort keys.
        alias_map = {
            name: col for name, col in zip(names, rel.columns)
        }
        perm: Optional[str] = None
        for item in reversed(order_by):
            var = self._order_key_var(rel, alias_map, item.expr,
                                      pre_projection)
            if perm is None:
                perm = self.prog.emit(
                    "algebra",
                    "sort",
                    [Var(var), Const(None), Const(item.descending)],
                )
            else:
                perm = self.prog.emit(
                    "algebra",
                    "refine",
                    [Var(var), Var(perm), Const(item.descending)],
                )
        assert perm is not None
        return self._project_all(rel, perm)

    def _order_key_var(self, rel, alias_map, expr, pre_projection=None) -> str:
        if isinstance(expr, ColumnRef):
            col = alias_map.get(expr.name.lower())
            if col is not None:
                return col.var
            # qualified references survive projection only by name: the
            # select list stripped qualifiers, so fall back to the bare
            # name, then to the row-aligned pre-projection relation
            for relation in (rel, pre_projection):
                if relation is None:
                    continue
                try:
                    return relation.resolve(expr).var
                except BindError:
                    if expr.table is not None:
                        try:
                            return relation.resolve(ColumnRef(expr.name)).var
                        except BindError:
                            pass
            raise BindError(f"cannot resolve ORDER BY column {expr.display()!r}")
        if pre_projection is not None:
            try:
                var, _ = self._expr(pre_projection, expr)
                return var
            except BindError:
                pass
        var, _ = self._expr(rel, expr)
        return var

    def _compile_limit(self, rel: Relation, limit: int) -> Relation:
        out = Relation()
        for col in rel:
            var = self.prog.emit(
                "algebra", "slice", [Var(col.var), Const(0), Const(limit)]
            )
            out.add(BoundColumn(col.qualifier, col.name, var, col.atom,
                                col.hidden))
        return out

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------
    def _const(self, rel: Relation, value: Any) -> Tuple[str, AtomType]:
        atom = _atom_rule("batcalc.const", value, None)
        var = self.prog.emit(
            "batcalc",
            "const",
            [Const(value), Var(rel.first_var()), Const(atom.value)],
        )
        return var, atom

    def _expr(self, rel: Relation, expr: Expr) -> Tuple[str, AtomType]:
        if isinstance(expr, Literal):
            return self._const(rel, expr.value)
        if isinstance(expr, ColumnRef):
            col = rel.resolve(expr)
            return col.var, col.atom
        if isinstance(expr, UnaryOp):
            ovar, oatom = self._expr(rel, expr.operand)
            return self._apply_unary(expr.op, ovar, oatom)
        if isinstance(expr, BinaryOp):
            lvar, latom = self._expr(rel, expr.left)
            rvar, ratom = self._expr(rel, expr.right)
            return self._apply_binary(expr.op, lvar, latom, rvar, ratom)
        if isinstance(expr, Between):
            return self._expr(rel, _desugar_between(expr))
        if isinstance(expr, InList):
            return self._expr(rel, _desugar_inlist(expr))
        if isinstance(expr, IsNull):
            var, atom = self._expr(rel, expr.operand)
            out, out_atom = self._typed("batcalc", "isnil", [Var(var)], atom)
            if expr.negated:
                return self._typed("batcalc", "not", [Var(out)], out_atom)
            return out, out_atom
        if isinstance(expr, Like):
            if not isinstance(expr.pattern, Literal) or not isinstance(
                expr.pattern.value, str
            ):
                raise BindError("LIKE pattern must be a string literal")
            var, atom = self._expr(rel, expr.operand)
            if atom is not AtomType.STR:
                raise BindError("LIKE applies to string expressions")
            return self._typed(
                "batstr", "like",
                [Var(var), Const(expr.pattern.value), Const(expr.negated)],
                atom, expr.pattern.value, expr.negated,
            )
        if isinstance(expr, CaseWhen):
            return self._compile_case(rel, expr)
        if isinstance(expr, FuncCall):
            return self._compile_function(rel, expr)
        raise BindError(f"unsupported expression {type(expr).__name__}")

    def _apply_unary(self, op: str, var: str, atom: AtomType):
        if op == "-":
            if not atom.is_numeric:
                raise BindError("unary minus needs a numeric operand")
            return self._typed("batcalc", "neg", [Var(var)], atom)
        if op == "not":
            if atom is not AtomType.BOOL:
                raise BindError("NOT needs a boolean operand")
            return self._typed("batcalc", "not", [Var(var)], atom)
        raise BindError(f"unknown unary operator {op!r}")

    def _apply_binary(self, op, lvar, latom, rvar, ratom):
        if op in ("and", "or"):
            if latom is not AtomType.BOOL or ratom is not AtomType.BOOL:
                raise BindError(f"{op.upper()} needs boolean operands")
        elif op not in ARITHMETIC + COMPARISONS:
            raise BindError(f"unknown operator {op!r}")
        return self._typed(
            "batcalc", op, [Var(lvar), Var(rvar)], latom, ratom
        )

    def _compile_case(self, rel: Relation, expr: CaseWhen):
        otherwise = expr.otherwise or Literal(None)
        evar, eatom = self._expr(rel, otherwise)
        for cond, value in reversed(expr.whens):
            cvar, catom = self._expr(rel, cond)
            if catom is not AtomType.BOOL:
                raise BindError("CASE WHEN condition must be boolean")
            vvar, vatom = self._expr(rel, value)
            evar, eatom = self._typed(
                "batcalc", "ifthenelse", [Var(cvar), Var(vvar), Var(evar)],
                catom, vatom, eatom,
            )
        return evar, eatom

    _STRING_FUNCTIONS = {"upper", "lower", "trim", "length", "substring"}
    _MATH_FUNCTIONS = {"abs", "floor", "ceil", "round", "sqrt"}

    def _compile_function(self, rel: Relation, expr: FuncCall):
        if expr.name in AGGREGATES:
            raise BindError(
                f"aggregate {expr.name}() is not allowed here (only in the "
                "select list / HAVING of an aggregating query)"
            )
        if expr.name.startswith("cast_"):
            from .binder import type_name_to_atom

            target = type_name_to_atom(expr.name[len("cast_"):]).value
            var, atom = self._expr(rel, expr.args[0])
            return self._typed(
                "batcalc", "cast", [Var(var), Const(target)], atom, target
            )
        if expr.name in self._STRING_FUNCTIONS:
            return self._compile_string_function(rel, expr)
        if expr.name in self._MATH_FUNCTIONS:
            return self._compile_math_function(rel, expr)
        raise BindError(f"unknown function {expr.name!r}")

    def _compile_string_function(self, rel: Relation, expr: FuncCall):
        if not expr.args:
            raise BindError(f"{expr.name} takes at least one argument")
        var, atom = self._expr(rel, expr.args[0])
        if atom is not AtomType.STR:
            raise BindError(f"{expr.name} applies to string expressions")
        bounds: List[Any] = []
        if expr.name == "substring":
            if len(expr.args) not in (2, 3):
                raise BindError("substring(str, start[, length])")
            for arg in expr.args[1:]:
                if not isinstance(arg, Literal) or not isinstance(
                    arg.value, int
                ):
                    raise BindError(
                        "substring bounds must be integer literals"
                    )
                bounds.append(arg.value)
        elif len(expr.args) != 1:
            raise BindError(f"{expr.name} takes exactly one argument")
        return self._typed(
            "batstr", expr.name, [Var(var)] + [Const(b) for b in bounds],
            atom, *bounds,
        )

    def _compile_math_function(self, rel: Relation, expr: FuncCall):
        if not expr.args:
            raise BindError(f"{expr.name} takes at least one argument")
        var, atom = self._expr(rel, expr.args[0])
        if not atom.is_numeric:
            raise BindError(f"{expr.name} applies to numeric expressions")
        digits = 0
        if expr.name == "round" and len(expr.args) == 2:
            arg = expr.args[1]
            if not isinstance(arg, Literal) or not isinstance(arg.value, int):
                raise BindError("round digits must be an integer literal")
            digits = arg.value
        elif len(expr.args) != 1:
            raise BindError(f"{expr.name} takes exactly one argument")
        return self._typed(
            "batmath", expr.name, [Var(var), Const(digits)], atom, digits
        )


# ======================================================================
# public entry points
# ======================================================================
def compile_select(catalog: Catalog, select: Select) -> CompiledQuery:
    """Compile a one-time SELECT over catalog tables."""
    program = Program(name="query")
    compiler = _SelectCompiler(catalog, program, [], allow_baskets=False)
    with program.node("select"):
        rel, names = compiler.compile(select)
        with program.node("result"):
            program.output = program.emit(
                "sql",
                "resultset",
                [Const(tuple(names))] + [Var(c.var) for c in rel.columns],
            )
    program.validate()
    return CompiledQuery(
        program, names, [c.atom for c in rel.columns], []
    )


def compile_union(catalog: Catalog, union: UnionSelect) -> CompiledQuery:
    """Compile a one-time UNION [ALL] chain.

    Members must agree on arity; numeric columns are widened to the common
    type.  Non-ALL unions dedupe the concatenated result (DISTINCT over
    all columns).  Simplification vs full SQL: in a mixed chain
    (``a UNION b UNION ALL c``) the dedup applies to the whole chain when
    any member is non-ALL, rather than per prefix.
    """
    members: List[Select] = []

    def flatten(stmt) -> None:
        if isinstance(stmt, UnionSelect):
            flatten(stmt.left)
            members.append(stmt.right)
        else:
            members.append(stmt)

    flatten(union)
    program = Program(name="union_query")
    program.begin_node("union")
    compiled_members = []
    for member in members:
        compiler = _SelectCompiler(catalog, program, [], allow_baskets=False)
        rel, names = compiler.compile(member)
        compiled_members.append((rel, names))
    first_rel, first_names = compiled_members[0]
    arity = len(first_rel.columns)
    out_atoms: List[AtomType] = [c.atom for c in first_rel.columns]
    for rel, _ in compiled_members[1:]:
        if len(rel.columns) != arity:
            raise BindError(
                "UNION members must have the same number of columns"
            )
        for i, col in enumerate(rel.columns):
            if col.atom is not out_atoms[i]:
                out_atoms[i] = common_type(col.atom, out_atoms[i])
    # concat member columns (casting where the common type widened)
    def column_var(rel, i) -> str:
        col = rel.columns[i]
        if col.atom is out_atoms[i]:
            return col.var
        return program.emit(
            "batcalc", "cast", [Var(col.var), Const(out_atoms[i].value)]
        )

    merged = [column_var(first_rel, i) for i in range(arity)]
    for rel, _ in compiled_members[1:]:
        merged = [
            program.emit(
                "bat", "concat", [Var(acc), Var(column_var(rel, i))]
            )
            for i, acc in enumerate(merged)
        ]
    out_rel = Relation(
        [
            BoundColumn(None, name.lower(), var, atom)
            for name, var, atom in zip(first_names, merged, out_atoms)
        ]
    )
    is_all = all(
        stmt.all for stmt in _union_nodes(union)
    )
    if not is_all:
        helper = _SelectCompiler(catalog, program, [], allow_baskets=False)
        out_rel = helper._compile_distinct(out_rel)
    with program.node("result"):
        program.output = program.emit(
            "sql",
            "resultset",
            [Const(tuple(first_names))]
            + [Var(c.var) for c in out_rel.columns],
        )
    program.end_node()
    program.validate()
    return CompiledQuery(program, first_names, out_atoms, [])


def _union_nodes(union):
    out = []
    node = union
    while isinstance(node, UnionSelect):
        out.append(node)
        node = node.left
    return out


def compile_continuous(catalog: Catalog, select: Select) -> CompiledQuery:
    """Compile a continuous SELECT (must contain a basket expression)."""
    program = Program(name="continuous_query")
    basket_inputs: List[BasketInput] = []
    compiler = _SelectCompiler(
        catalog, program, basket_inputs, allow_baskets=True
    )
    with program.node("continuous select"):
        rel, names = compiler.compile(select)
        if not basket_inputs:
            raise BindError(
                "a continuous query must contain a basket expression "
                "([select ...])"
            )
        with program.node("result"):
            program.output = program.emit(
                "sql",
                "resultset",
                [Const(tuple(names))] + [Var(c.var) for c in rel.columns],
            )
    program.validate()
    return CompiledQuery(
        program, names, [c.atom for c in rel.columns], basket_inputs
    )


# ======================================================================
# helpers
# ======================================================================
def _resolve_side(ref: ColumnRef, left: Relation, right: Relation):
    """``("l"|"r", column)`` when ``ref`` binds unambiguously across both."""
    try:
        col = Relation(left.columns + right.columns).resolve(ref)
    except BindError:
        return None
    return ("l" if any(c is col for c in left) else "r"), col


def _split_and(expr: Expr) -> List[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _join_and(conjuncts: List[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    out = conjuncts[0]
    for conj in conjuncts[1:]:
        out = BinaryOp("and", out, conj)
    return out


def _is_literal(expr: Expr) -> bool:
    if isinstance(expr, Literal):
        return True
    return (
        isinstance(expr, UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, Literal)
        and isinstance(expr.operand.value, (int, float))
    )


def _literal_value(expr: Expr) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    assert isinstance(expr, UnaryOp)
    inner = expr.operand
    assert isinstance(inner, Literal)
    return -inner.value


def _flip_op(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _atom_rule(opcode: str, *items: Any) -> AtomType:
    """The result atom ``opcode``'s rule gives ``items``; a clash is the
    query's type error."""
    try:
        return OPCODES[opcode].atom(*items)
    except TypeMismatchError as exc:
        raise BindError(f"{opcode}: {exc}") from None


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        return expr.name
    return f"col{index}"


def _contains_aggregate(expr: Expr) -> bool:
    found: List[FuncCall] = []
    _walk_aggregates(expr, found)
    return bool(found)


def _walk_aggregates(expr: Expr, out: List[FuncCall]) -> None:
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATES:
            out.append(expr)
            return
        for arg in expr.args:
            _walk_aggregates(arg, out)
    elif isinstance(expr, BinaryOp):
        _walk_aggregates(expr.left, out)
        _walk_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _walk_aggregates(expr.operand, out)
    elif isinstance(expr, Between):
        for sub in (expr.operand, expr.low, expr.high):
            _walk_aggregates(sub, out)
    elif isinstance(expr, InList):
        _walk_aggregates(expr.operand, out)
        for item in expr.items:
            _walk_aggregates(item, out)
    elif isinstance(expr, IsNull):
        _walk_aggregates(expr.operand, out)
    elif isinstance(expr, Like):
        _walk_aggregates(expr.operand, out)
        _walk_aggregates(expr.pattern, out)
    elif isinstance(expr, CaseWhen):
        for cond, value in expr.whens:
            _walk_aggregates(cond, out)
            _walk_aggregates(value, out)
        if expr.otherwise is not None:
            _walk_aggregates(expr.otherwise, out)


def _expr_key(expr: Expr) -> str:
    """A canonical structural key for expression deduplication."""
    if isinstance(expr, Literal):
        return f"lit:{expr.value!r}"
    if isinstance(expr, ColumnRef):
        return f"col:{expr.name.lower()}"  # qualifier-insensitive on purpose
    if isinstance(expr, Star):
        return "star"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {_expr_key(expr.operand)})"
    if isinstance(expr, BinaryOp):
        return f"({_expr_key(expr.left)} {expr.op} {_expr_key(expr.right)})"
    if isinstance(expr, FuncCall):
        inner = "*" if expr.star else ",".join(_expr_key(a) for a in expr.args)
        return f"{expr.name}({inner})"
    if isinstance(expr, Between):
        return (
            f"between({_expr_key(expr.operand)},{_expr_key(expr.low)},"
            f"{_expr_key(expr.high)},{expr.negated})"
        )
    if isinstance(expr, InList):
        items = ",".join(_expr_key(i) for i in expr.items)
        return f"in({_expr_key(expr.operand)},[{items}],{expr.negated})"
    if isinstance(expr, IsNull):
        return f"isnull({_expr_key(expr.operand)},{expr.negated})"
    if isinstance(expr, Like):
        return (
            f"like({_expr_key(expr.operand)},{_expr_key(expr.pattern)},"
            f"{expr.negated})"
        )
    if isinstance(expr, CaseWhen):
        whens = ";".join(
            f"{_expr_key(c)}->{_expr_key(v)}" for c, v in expr.whens
        )
        other = _expr_key(expr.otherwise) if expr.otherwise else ""
        return f"case({whens},{other})"
    raise BindError(f"cannot key expression {type(expr).__name__}")


def _desugar_between(expr: Between) -> Expr:
    low = BinaryOp(">=", expr.operand, expr.low)
    high = BinaryOp("<=", expr.operand, expr.high)
    both = BinaryOp("and", low, high)
    return UnaryOp("not", both) if expr.negated else both


def _desugar_inlist(expr: InList) -> Expr:
    out: Optional[Expr] = None
    for item in expr.items:
        eq = BinaryOp("==", expr.operand, item)
        out = eq if out is None else BinaryOp("or", out, eq)
    assert out is not None
    return UnaryOp("not", out) if expr.negated else out

"""SQL → MAL code generation.

Generates a MAL :class:`~repro.kernel.mal.Program` from a query the
resolver (:func:`repro.sql.resolve.resolve`) has read, following the
classic column-store plan shape: bind columns, derive candidate lists
with selections, project, join via oid pairs, group/aggregate, order,
slice, build the result set.

Entry points:

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

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BindError, SqlError, TypeMismatchError
from ..kernel.calc import ARITHMETIC, COMPARISONS
from ..kernel.catalog import Catalog
from ..kernel.interpreter import OPCODES, MalInterpreter
from ..kernel.mal import Arg, Const, Program, ResultSet, Var
from ..kernel.types import AtomType, common_type
from .ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Select,
    UnaryOp,
    UnionSelect,
)
from .binder import BoundColumn, Relation, lookup
from .resolve import (
    BasketFrom,
    EquiPair,
    From,
    Item,
    ResolvedSelect,
    SubqueryFrom,
    TableFrom,
    expr_key,
    is_aggregate,
    resolve,
)

__all__ = [
    "CompiledQuery",
    "compile_union",
    "MalContinuousPlan",
    "compile_select",
    "compile_continuous",
    "generate_continuous",
]


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
    """Generates one resolved SELECT's instructions into a shared program."""

    def __init__(
        self,
        program: Program,
        basket_inputs: List[BasketInput],
        allow_baskets: bool,
    ):
        self.prog = program
        self.basket_inputs = basket_inputs
        self.allow_baskets = allow_baskets
        self.groups: Optional[Dict[str, BoundColumn]] = None

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
    def compile(self, query: ResolvedSelect) -> Relation:
        """Generate ``query``; returns its output relation.

        Each logical phase opens a :meth:`Program.node` scope, so every
        emitted instruction carries a back-pointer to the plan operator it
        implements — the EXPLAIN ANALYZE aggregation key.
        """
        if query.window is not None:
            raise SqlError(
                "WINDOW applies only to the outer SELECT of a continuous query"
            )
        with self.prog.node("from"):
            rel = self._compile_sources(query)
        if query.where:
            with self.prog.node("where"):
                rel, _ = self._filter_with_cands(
                    rel, [c.expr for c in query.where]
                )
        pre_projection: Optional[Relation] = None
        if query.aggregating:
            with self.prog.node("aggregate"):
                rel = self._compile_aggregation(rel, query)
        else:
            pre_projection = rel
            with self.prog.node("project"):
                rel = self._apply_select_items(rel, query.items)
        if query.distinct:
            with self.prog.node("distinct"):
                rel = self._compile_distinct(rel)
            pre_projection = None  # dedup breaks row alignment
        if query.order:
            with self.prog.node("order by"):
                rel = self._compile_order(rel, query.order, pre_projection)
        if query.limit is not None:
            with self.prog.node("limit"):
                rel = self._compile_limit(rel, query.limit)
        return rel

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _compile_sources(self, query: ResolvedSelect) -> Relation:
        """Join the FROM items left to right, each on its equi pair or
        as a cross product."""
        relations = [self._compile_source(s) for s in query.from_items]
        rel = relations[0]
        for other, pair in zip(relations[1:], query.joins):
            rel = self._join(rel, other, pair)
        return rel

    def _compile_source(self, source: From) -> Relation:
        if isinstance(source, TableFrom):
            return self._compile_table(source)
        if isinstance(source, BasketFrom):
            return self._compile_basket_expr(source)
        if isinstance(source, SubqueryFrom):
            with self.prog.node("subquery"):
                rel = self.compile(source.select)
            return [
                BoundColumn(source.alias, c.name, c.var, c.atom) for c in rel
            ]
        with self.prog.node("join"):
            rel = self._join(
                self._compile_source(source.left),
                self._compile_source(source.right),
                source.equi,
            )
            if source.on:
                rel, _ = self._filter_with_cands(rel, source.on)
            return rel

    def _compile_table(self, source: TableFrom) -> Relation:
        table = source.table
        rel = []
        with self.prog.node(f"scan {table.name}"):
            # Rebase to a dense-0 head so positions == candidate oids
            # throughout the plan (see module docstring invariant).
            first = self.prog.emit(
                "sql", "bind",
                [Const(table.name), Const(table.schema.columns[0].name)],
            )
            cands = self.prog.emit("algebra", "densecands", [Var(first)])
            for col, bound in zip(table.schema, source.columns):
                var = self.prog.emit(
                    "sql", "bind", [Const(table.name), Const(col.name)]
                )
                rebased = self.prog.emit(
                    "algebra", "projection", [Var(cands), Var(var)]
                )
                rel.append(
                    BoundColumn(bound.qualifier, bound.name, rebased, col.atom)
                )
        return rel

    def _compile_basket_expr(self, source: BasketFrom) -> Relation:
        """Compile ``[select ...] as alias``: snapshot scan + consumption."""
        if not self.allow_baskets:
            raise BindError(
                "basket expressions are only allowed in continuous queries"
            )
        basket = source.basket
        # one plan node per basket expression: its selections/limits are
        # the window predicate, reported as a unit by EXPLAIN ANALYZE
        self.prog.begin_node(f"basket {basket.name}")
        # Snapshot columns arrive as program inputs "<outer alias>.<col>".
        rel = []
        for col, base in zip(basket.schema, source.base):
            var = f"{source.alias}.{base.name}"
            self.prog.inputs.append(var)
            rel.append(BoundColumn(base.qualifier, base.name, var, col.atom))
        # WHERE inside the brackets = the predicate window: it decides
        # which snapshot positions are referenced (and hence consumed).
        if source.where:
            filtered, consumed_var = self._filter_with_cands(rel, source.where)
        else:
            consumed_var = self.prog.emit(
                "algebra", "densecands", [Var(rel[0].var)]
            )
            filtered = rel
        if source.limit is not None:
            # result-set-constraint window (§2.6): the basket expression
            # references (and consumes) at most LIMIT tuples per firing
            consumed_var = self.prog.emit(
                "algebra", "firstn", [Var(consumed_var), Const(source.limit)]
            )
            filtered = self._compile_limit(filtered, source.limit)
        self.basket_inputs.append(
            BasketInput(
                basket.name.lower(),
                source.alias,
                consumed_var,
                result_constrained=source.limit is not None,
            )
        )
        # consumed tuples must actually be the ones exposed through S:
        projected = [
            BoundColumn(source.alias, c.name, c.var, c.atom) for c in filtered
        ]
        inner_rel = self._apply_select_items(
            projected, source.items, default_alias=source.alias
        )
        # the implicit timestamp stays reachable through the alias even
        # though * does not expand it (queries may order/window on it)
        kept = {c.name for c in source.columns[len(source.items):]}
        inner_rel += [c for c in projected if c.name in kept]
        self.prog.end_node()
        return inner_rel

    def _join(
        self, left: Relation, right: Relation, pair: Optional[EquiPair]
    ) -> Relation:
        """The inner equi-join of ``left`` and ``right`` on ``pair`` via
        ``algebra.join``, or without a pair their cross product (small
        sides expected); both sides' columns are fetched through the
        join's oid pairs."""
        if pair is None:
            fn, keys = "crossproduct", (left[0], right[0])
        else:
            fn, keys = "join", (lookup(left, pair[0]), lookup(right, pair[1]))
        oids = self.prog.emit(
            "algebra", fn, [Var(keys[0].var), Var(keys[1].var)], results=2
        )
        rel = []
        for side_oids, side in zip(oids, (left, right)):
            for col in side:
                var = self.prog.emit(
                    "algebra", "projection", [Var(side_oids), Var(col.var)]
                )
                rel.append(BoundColumn(col.qualifier, col.name, var, col.atom))
        return rel

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def _filter_with_cands(
        self, rel: Relation, conjuncts: Sequence[Expr]
    ) -> Tuple[Relation, str]:
        """Filter ``rel`` by the AND of ``conjuncts``; returns (new
        relation, candidate var).

        Simple conjuncts (column ⟨op⟩ literal, BETWEEN) become kernel
        selections threaded through a candidate list — a lower and an
        upper bound on one column as one range select — the residual is
        evaluated as a boolean column.  The returned candidate variable
        holds the qualifying positions of the *input* relation — the
        consumption set for basket expressions.
        """
        cands: Optional[str] = None
        residual: List[Expr] = []
        for conj in _merge_ranges(rel, conjuncts):
            emitted = self._try_simple_select(rel, conj, cands)
            if emitted is not None:
                cands = emitted
            else:
                residual.append(conj)
        if residual:
            rest = _join_and(residual)
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
        assert cands is not None
        return self._project_all(rel, cands), cands

    def _try_simple_select(
        self, rel: Relation, conj: Expr, cands: Optional[str]
    ) -> Optional[str]:
        """Emit a kernel selection for a simple conjunct, if possible."""
        cand_arg = Const(None) if cands is None else Var(cands)
        if isinstance(conj, _Range):
            col = lookup(rel, conj.column)
            return self.prog.emit(
                "algebra",
                "select",
                [
                    Var(col.var),
                    cand_arg,
                    Const(conj.low),
                    Const(conj.high),
                    Const(conj.low_inclusive),
                    Const(conj.high_inclusive),
                    Const(False),
                ],
            )
        if isinstance(conj, IsNull):
            if isinstance(conj.operand, ColumnRef):
                col = lookup(rel, conj.operand)
                fn = "selectnotnil" if conj.negated else "selectnil"
                return self.prog.emit(
                    "algebra", fn, [Var(col.var), cand_arg]
                )
        if isinstance(conj, Like):
            if isinstance(conj.operand, ColumnRef) and isinstance(
                conj.pattern, Literal
            ):
                col = lookup(rel, conj.operand)
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
                col = lookup(rel, ref)
                return self.prog.emit(
                    "algebra",
                    "thetaselect",
                    [Var(col.var), cand_arg, Const(op),
                     Const(_literal_value(lit))],
                )
        return None

    def _project_all(self, rel: Relation, cands: str) -> Relation:
        out = []
        for col in rel:
            var = self.prog.emit(
                "algebra", "projection", [Var(cands), Var(col.var)]
            )
            out.append(BoundColumn(col.qualifier, col.name, var, col.atom))
        return out

    # ------------------------------------------------------------------
    # projection (no aggregation)
    # ------------------------------------------------------------------
    def _apply_select_items(
        self,
        rel: Relation,
        items: Sequence[Item],
        default_alias: Optional[str] = None,
    ) -> Relation:
        return [
            BoundColumn(
                default_alias or item.qualifier, item.name,
                *self._expr(rel, item.expr),
            )
            for item in items
        ]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _compile_aggregation(
        self, rel: Relation, query: ResolvedSelect
    ) -> Relation:
        # 1. group key columns
        key_vars: List[Tuple[str, str, AtomType]] = []  # (key, var, atom)
        groups: Optional[Tuple[Arg, Arg]] = None  # (group ids, count)
        if query.keys:
            grp_var: Optional[str] = None
            for gexpr in query.keys:
                var, atom = self._expr(rel, gexpr)
                key_vars.append((expr_key(gexpr), var, atom))
                grp_var, ext_var, n_var = self._group(var, grp_var)
            groups = (Var(grp_var), Var(n_var))
        elif not all(is_aggregate(item.expr) for item in query.items):
            raise BindError(
                "without GROUP BY the select list may contain only "
                "aggregates"
            )
        # 2. aggregate columns (each aggregate once).  Without GROUP BY
        # every row is in group 0 of 1, so an empty input still gives
        # one row; the group ids align with the first aggregate's input.
        aggs = []
        for agg in query.aggregates:
            if agg.star:
                name, var, atom = "count_star", rel[0].var, None
            else:
                name, (var, atom) = agg.name, self._expr(rel, agg.args[0])
            if groups is None:
                one_group = self.prog.emit(
                    "batcalc", "const",
                    [Const(0), Var(var), Const(AtomType.OID.value)],
                )
                groups = (Var(one_group), Const(1))
            aggs.append((expr_key(agg), self._typed(
                "aggr", f"sub{name}", [Var(var), *groups],
                atom, AtomType.OID, None,
            )))
        # 3. post-aggregation relation: keys projected through extents
        columns = [
            (key, self.prog.emit(
                "algebra", "projection", [Var(ext_var), Var(var)]
            ), atom)
            for key, var, atom in key_vars
        ] + [(key, var, atom) for key, (var, atom) in aggs]
        keys = [key for key, _, _ in columns]
        post = [
            BoundColumn(None, f"__group_{i}", var, atom)
            for i, (_, var, atom) in enumerate(columns)
        ]
        # 4. HAVING
        if query.group_filter is not None:
            cands = self._having(
                post, query.group_filter, dict(zip(keys, post))
            )
            post = self._project_all(post, cands)
        # 5. select list over grouped relation
        mapping = dict(zip(keys, post))
        return [
            BoundColumn(
                None, item.name,
                *self._expr_over_groups(post, item.expr, mapping),
            )
            for item in query.items
        ]

    def _group(
        self, var: str, grp_var: Optional[str]
    ) -> Tuple[str, str, str]:
        """Group by ``var`` (within the groups ``grp_var``); returns the
        group ids, extents and count."""
        if grp_var is None:
            return self.prog.emit("group", "group", [Var(var)], results=3)
        return self.prog.emit(
            "group", "subgroup", [Var(var), Var(grp_var)], results=3
        )

    def _having(
        self, post: Relation, having: Expr, mapping: Dict[str, BoundColumn]
    ) -> str:
        """The candidates of the groups ``having`` keeps."""
        hvar, hatom = self._expr_over_groups(post, having, mapping)
        if hatom is not AtomType.BOOL:
            raise BindError("HAVING predicate must be boolean")
        return self.prog.emit("algebra", "mask2cand", [Var(hvar)])

    def _expr_over_groups(
        self, post: Relation, expr: Expr, groups: Dict[str, BoundColumn]
    ) -> Tuple[str, AtomType]:
        """Evaluate a select/having expression over the grouped relation,
        where ``groups`` maps each aggregate and group key (by structural
        key) to its materialized column."""
        self.groups = groups
        try:
            return self._expr(post, expr)
        finally:
            self.groups = None

    # ------------------------------------------------------------------
    # distinct / order / limit
    # ------------------------------------------------------------------
    def _compile_distinct(self, rel: Relation) -> Relation:
        grp_var: Optional[str] = None
        for col in rel:
            grp_var, ext_var, _ = self._group(col.var, grp_var)
        return self._project_all(rel, ext_var)

    def _compile_order(
        self,
        rel: Relation,
        order_by: Sequence[OrderItem],
        pre_projection: Optional[Relation] = None,
    ) -> Relation:
        # ORDER BY may reference output aliases, output columns, or (as in
        # standard SQL) input columns not kept by the select list — the
        # pre-projection relation is row-aligned with the output, so its
        # columns are valid sort keys.
        alias_map = {col.name: col for col in rel}
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
        if isinstance(expr, Literal) and type(expr.value) is int:
            # ORDER BY <n>: the n-th output column (1-based)
            if not 1 <= expr.value <= len(rel):
                raise BindError(
                    f"ORDER BY position {expr.value} is not in the select list"
                )
            return rel[expr.value - 1].var
        if isinstance(expr, ColumnRef):
            col = alias_map.get(expr.name.lower())
            # an input column the select list dropped: the pre-projection
            # relation is row-aligned with the output (a qualifier that
            # does not bind falls back to the bare name)
            for ref in (expr, ColumnRef(expr.name)):
                if col is None and pre_projection is not None:
                    try:
                        col = lookup(pre_projection, ref)
                    except BindError:
                        pass
            if col is None:
                raise BindError(
                    f"cannot resolve ORDER BY column {expr.display()!r}"
                )
            return col.var
        if pre_projection is not None:
            try:
                var, _ = self._expr(pre_projection, expr)
                return var
            except BindError:
                pass
        var, _ = self._expr(rel, expr)
        return var

    def _compile_limit(self, rel: Relation, limit: int) -> Relation:
        out = []
        for col in rel:
            var = self.prog.emit(
                "algebra", "slice", [Var(col.var), Const(0), Const(limit)]
            )
            out.append(BoundColumn(col.qualifier, col.name, var, col.atom))
        return out

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------
    def _const(self, rel: Relation, value: Any) -> Tuple[str, AtomType]:
        atom = _atom_rule("batcalc.const", value, None)
        var = self.prog.emit(
            "batcalc",
            "const",
            [Const(value), Var(rel[0].var), Const(atom.value)],
        )
        return var, atom

    def _expr(self, rel: Relation, expr: Expr) -> Tuple[str, AtomType]:
        if self.groups is not None:
            # over groups, aggregates and group keys are materialized
            # columns; everything else is built from those
            col = self.groups.get(expr_key(expr))
            if col is not None:
                return col.var, col.atom
            if isinstance(expr, ColumnRef):
                raise BindError(
                    f"column {expr.display()!r} must appear in GROUP BY or "
                    "inside an aggregate"
                )
        if isinstance(expr, Literal):
            return self._const(rel, expr.value)
        if isinstance(expr, ColumnRef):
            col = lookup(rel, expr)
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
        if is_aggregate(expr):
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
    return _generate(resolve(catalog, select), continuous=False)


def compile_union(catalog: Catalog, union: UnionSelect) -> CompiledQuery:
    """Compile a one-time UNION [ALL] chain.

    Members must agree on arity; numeric columns are widened to the common
    type.  The chain is left-deep, as in SQL: each non-ALL step dedupes
    everything merged so far (DISTINCT over all columns).  A trailing
    ORDER BY / LIMIT belongs to the whole chain, not its last member; it
    names output columns (the first member's names) or positions.
    """
    members: List[Select] = []
    steps: List[bool] = []  # per member after the first: UNION ALL?
    node: Any = union
    while isinstance(node, UnionSelect):  # left-deep: members right to left
        members.insert(0, node.right)
        steps.insert(0, node.all)
        node = node.left
    members.insert(0, node)
    program = Program(name="union_query")
    program.begin_node("union")
    compiler = _SelectCompiler(program, [], allow_baskets=False)
    queries = [resolve(catalog, member) for member in members]
    last = queries[-1]
    queries[-1] = replace(last, order=(), limit=None)
    first_names = queries[0].names
    relations = [compiler.compile(query) for query in queries]
    first_rel = relations[0]
    arity = len(first_rel)
    out_atoms: List[AtomType] = [c.atom for c in first_rel]
    for rel in relations[1:]:
        if len(rel) != arity:
            raise BindError(
                "UNION members must have the same number of columns"
            )
        for i, col in enumerate(rel):
            if col.atom is not out_atoms[i]:
                out_atoms[i] = common_type(col.atom, out_atoms[i])
    # concat member columns (casting where the common type widened)
    def column_var(rel, i) -> str:
        col = rel[i]
        if col.atom is out_atoms[i]:
            return col.var
        return program.emit(
            "batcalc", "cast", [Var(col.var), Const(out_atoms[i].value)]
        )

    out_rel = [
        BoundColumn(None, name, column_var(first_rel, i), atom)
        for i, (name, atom) in enumerate(zip(first_names, out_atoms))
    ]
    for rel, all_rows in zip(relations[1:], steps):
        out_rel = [
            BoundColumn(None, col.name, program.emit(
                "bat", "concat", [Var(col.var), Var(column_var(rel, i))]
            ), col.atom)
            for i, col in enumerate(out_rel)
        ]
        if not all_rows:
            out_rel = compiler._compile_distinct(out_rel)
    if last.order:
        with program.node("order by"):
            out_rel = compiler._compile_order(out_rel, last.order)
    if last.limit is not None:
        with program.node("limit"):
            out_rel = compiler._compile_limit(out_rel, last.limit)
    with program.node("result"):
        program.output = program.emit(
            "sql",
            "resultset",
            [Const(tuple(first_names))]
            + [Var(c.var) for c in out_rel],
        )
    program.end_node()
    program.validate()
    return CompiledQuery(program, first_names, out_atoms, [])


def compile_continuous(catalog: Catalog, select: Select) -> CompiledQuery:
    """Compile a continuous SELECT (must contain a basket expression)."""
    return generate_continuous(resolve(catalog, select))


def generate_continuous(query: ResolvedSelect) -> CompiledQuery:
    """Generate the MAL program of a resolved continuous SELECT."""
    return _generate(query, continuous=True)


def _generate(query: ResolvedSelect, continuous: bool) -> CompiledQuery:
    program = Program(name="continuous_query" if continuous else "query")
    basket_inputs: List[BasketInput] = []
    compiler = _SelectCompiler(program, basket_inputs, continuous)
    with program.node("continuous select" if continuous else "select"):
        rel = compiler.compile(query)
        if continuous and not basket_inputs:
            raise BindError(
                "a continuous query must contain a basket expression "
                "([select ...])"
            )
        with program.node("result"):
            program.output = program.emit(
                "sql",
                "resultset",
                [Const(tuple(query.names))] + [Var(c.var) for c in rel],
            )
    program.validate()
    return CompiledQuery(
        program, query.names, [c.atom for c in rel], basket_inputs
    )


# ======================================================================
# helpers
# ======================================================================
def _join_and(conjuncts: List[Expr]) -> Expr:
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


@dataclass(frozen=True)
class _Range:
    """``column`` between ``low`` and ``high``: two bound conjuncts on
    one column, compiled as one ``algebra.select``."""

    column: ColumnRef
    low: Any
    high: Any
    low_inclusive: bool
    high_inclusive: bool


def _bound(conj: Expr) -> Optional[Tuple[ColumnRef, str, Any]]:
    """``(column, op, value)`` of a ``column < <= > >= literal``
    conjunct (either side) with a non-NULL literal, the column on the
    left of ``op``; otherwise ``None``."""
    if not isinstance(conj, BinaryOp) or conj.op not in ("<", "<=", ">", ">="):
        return None
    if isinstance(conj.left, ColumnRef) and _is_literal(conj.right):
        ref, lit, op = conj.left, conj.right, conj.op
    elif isinstance(conj.right, ColumnRef) and _is_literal(conj.left):
        ref, lit, op = conj.right, conj.left, _flip_op(conj.op)
    else:
        return None
    value = _literal_value(lit)
    return None if value is None else (ref, op, value)


def _merge_ranges(rel: Relation, conjuncts: Sequence[Expr]) -> List[Expr]:
    """``conjuncts`` with each range as one :class:`_Range`: a BETWEEN on
    a column with literal bounds, and the first lower and the first
    upper bound on each column merged at the earlier one's place
    (candidate lists are ascending positions, so the order of
    intersections does not change the result)."""
    out: List[Any] = list(conjuncts)
    open_bounds: Dict[Tuple[str, bool], Tuple[int, str, Any]] = {}
    for i, conj in enumerate(conjuncts):
        if (
            isinstance(conj, Between) and not conj.negated
            and isinstance(conj.operand, ColumnRef)
            and _is_literal(conj.low) and _is_literal(conj.high)
        ):
            out[i] = _Range(conj.operand, _literal_value(conj.low),
                            _literal_value(conj.high), True, True)
            continue
        bound = _bound(conj)
        if bound is None:
            continue
        ref, op, value = bound
        var = lookup(rel, ref).var
        lower = op[0] == ">"
        other = open_bounds.pop((var, not lower), None)
        if other is None:
            open_bounds.setdefault((var, lower), (i, op, value))
            continue
        j, other_op, other_value = other
        (low_op, low), (high_op, high) = (
            ((op, value), (other_op, other_value)) if lower
            else ((other_op, other_value), (op, value))
        )
        out[j] = _Range(ref, low, high, low_op == ">=", high_op == "<=")
        out[i] = None
    return [conj for conj in out if conj is not None]


def _atom_rule(opcode: str, *items: Any) -> AtomType:
    """The result atom ``opcode``'s rule gives ``items``; a clash is the
    query's type error."""
    try:
        return OPCODES[opcode].atom(*items)
    except TypeMismatchError as exc:
        raise BindError(f"{opcode}: {exc}") from None


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

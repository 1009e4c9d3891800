"""MAL program optimizer.

MonetDB runs compiled plans through an optimizer pipeline; we reproduce
the passes that matter for the DataCell's plans:

``dead code elimination``
    instructions whose results are never used (transitively from the
    program output and the consumed-candidates variables) are dropped —
    star-expansion and hidden-column plumbing leave plenty behind;

``common subexpression elimination``
    structurally identical instructions reuse the first result (every
    primitive is pure) — repeated ``sql.bind``/``projection`` chains collapse, which
    is the compiler-level analogue of the paper's "similarities at the
    query plan level" (§3).  A merged output or protected root keeps its
    name through a ``language.pass`` alias.

The passes are pure: they return a new :class:`Program` and never touch
the input.  ``optimize`` wires them in the standard order and is safe for
factory plans — variables named in ``protected`` (e.g. consumed-candidate
variables) are treated as live roots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..kernel.mal import Arg, Instr, Program, Var

__all__ = [
    "optimize",
    "eliminate_dead_code",
    "eliminate_common_subexpressions",
    "OptimizerReport",
]

class OptimizerReport:
    """What the pipeline did (exposed via EXPLAIN and tests)."""

    def __init__(self) -> None:
        self.instructions_before = 0
        self.instructions_after = 0
        self.dce_removed = 0
        self.cse_merged = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizerReport({self.instructions_before} -> "
            f"{self.instructions_after}, dce={self.dce_removed}, "
            f"cse={self.cse_merged})"
        )


def _clone(program: Program, instructions: List[Instr]) -> Program:
    out = Program(
        name=program.name, inputs=list(program.inputs), output=program.output
    )
    out.instructions = list(instructions)
    out._counter = program._counter
    # carry the logical-plan annotation layer: instructions keep their
    # node back-pointers, so the optimized program must keep the tree
    out.nodes = dict(program.nodes)
    out.plan_root = program.plan_root
    out._node_counter = program._node_counter
    return out


def _arg_key(arg: Arg) -> str:
    if isinstance(arg, Var):
        return f"v:{arg.name}"
    return f"c:{arg.value!r}"


def eliminate_common_subexpressions(
    program: Program, protected: Sequence[str] = ()
) -> Tuple[Program, int]:
    """Merge structurally identical pure instructions.

    Returns ``(new_program, merged_count)``.  An instruction is merged
    when an earlier instruction with the same module.fn and the same
    (renamed) arguments exists; its results are rewritten to the earlier
    ones everywhere downstream.
    """
    rename: Dict[str, str] = {}
    seen: Dict[str, Tuple[str, ...]] = {}
    kept: List[Instr] = []
    merged = 0
    for ins in program.instructions:
        args = tuple(
            Var(rename.get(a.name, a.name)) if isinstance(a, Var) else a
            for a in ins.args
        )
        renamed = Instr(ins.results, ins.module, ins.fn, args, node=ins.node)
        key = (
            f"{ins.module}.{ins.fn}("
            + ",".join(_arg_key(a) for a in args)
            + ")"
        )
        prior = seen.get(key)
        if prior is not None and len(prior) == len(ins.results):
            for mine, theirs in zip(ins.results, prior):
                rename[mine] = theirs
            merged += 1
            continue
        seen[key] = renamed.results
        kept.append(renamed)
    # rewrite output / keep protected names stable: protected and output
    # vars that were merged away need a pass-through alias
    out_program = _clone(program, kept)
    roots = [program.output] if program.output else []
    roots += list(protected)
    for root in roots:
        if root in rename:
            out_program.instructions.append(
                Instr((root,), "language", "pass", (Var(rename[root]),))
            )
    return out_program, merged


def eliminate_dead_code(
    program: Program, protected: Sequence[str] = ()
) -> Tuple[Program, int]:
    """Drop instructions not reachable from the output/protected roots."""
    live: Set[str] = set(protected)
    if program.output:
        live.add(program.output)
    kept_reversed: List[Instr] = []
    removed = 0
    for ins in reversed(program.instructions):
        if not any(r in live for r in ins.results):
            removed += 1
            continue
        for arg in ins.args:
            if isinstance(arg, Var):
                live.add(arg.name)
        kept_reversed.append(ins)
    return _clone(program, list(reversed(kept_reversed))), removed


def optimize(
    program: Program,
    protected: Sequence[str] = (),
) -> Tuple[Program, OptimizerReport]:
    """Run the full pipeline: CSE → DCE.

    ``protected`` names extra live roots (the consumed-candidates
    variables of continuous plans).
    """
    report = OptimizerReport()
    report.instructions_before = len(program)
    merged_prog, merged = eliminate_common_subexpressions(program, protected)
    report.cse_merged = merged
    final, removed = eliminate_dead_code(merged_prog, protected)
    report.dce_removed = removed
    report.instructions_after = len(final)
    final.validate()
    return final, report

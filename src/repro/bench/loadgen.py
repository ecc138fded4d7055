"""The serve workload's building blocks: op mix, edit scripts, corpus.

perfbench's ``serve-mixed`` workload drives a daemon with these: a
working set of generated programs (:class:`LoadgenCorpus`), each with a
deterministic *edit script* (:func:`edit_script`: single-procedure
literal mutations, the same mutation family the incremental-session
suites replay), and the weighted request mix clients draw from
(:data:`OP_MIX`).  The serve differential suite replays the same
scripts against one daemon and a sharded router.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.generator import GeneratorConfig, generate_program
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.session.mutate import mutate_procedure, render_procedure

#: Operation mix: (kind, weight).  Reads dominate, as they do in serving —
#: an analysis daemon answers many report/diagnostics queries per edit
#: (editors debounce), and full re-submissions of a known program are rare.
OP_MIX: Tuple[Tuple[str, int], ...] = (
    ("report", 55),
    ("diagnostics", 25),
    ("edit", 15),
    ("analyze", 5),
)


def edit_script(
    seed: int, edits: int, procs: Optional[int] = None
) -> List[str]:
    """Deterministic source versions of one generated program.

    ``versions[0]`` is the pristine program; each later version mutates
    one procedure's literals (analysis-safe by construction, from
    :mod:`repro.session.mutate`).  perfbench's ``serve-mixed`` and the
    serve differential suite replay these scripts.  ``procs`` sizes the program
    (``GeneratorConfig.n_procs``); ``None`` keeps the generator default.
    """
    config = GeneratorConfig(n_procs=procs) if procs else None
    program = generate_program(seed, config)
    versions = [pretty_program(program)]
    rng = random.Random((seed << 8) ^ 0x10ADCE)
    for _ in range(edits):
        program = parse_program(versions[-1])
        procs = list(program.procedures)
        index = 0
        mutated = procs[0]
        for _attempt in range(8):  # literal-free procedures mutate to no-ops
            index = rng.randrange(len(procs))
            mutated = mutate_procedure(procs[index], rng.randrange(1 << 30))
            if render_procedure(mutated) != render_procedure(procs[index]):
                break
        procs[index] = mutated
        versions.append(
            pretty_program(
                ast.Program(program.global_names, program.inits, procs)
            )
        )
    return versions


@dataclass
class LoadgenCorpus:
    """The generated working set: program ids and their edit scripts."""

    ids: List[str]
    versions: Dict[str, List[str]]

    @classmethod
    def build(
        cls,
        programs: int,
        seed: int,
        edits: int = 4,
        procs: Optional[int] = None,
    ) -> "LoadgenCorpus":
        ids = [f"lg{index:03d}" for index in range(programs)]
        versions = {
            pid: edit_script(seed * 1009 + index, edits, procs)
            for index, pid in enumerate(ids)
        }
        return cls(ids, versions)

"""The serve workload's edit scripts and corpus: determinism and shape."""

from repro.bench.loadgen import LoadgenCorpus, edit_script
from repro.lang.parser import parse_program


class TestEditScript:
    def test_deterministic(self):
        assert edit_script(11, 3) == edit_script(11, 3)

    def test_versions_parse_and_differ(self):
        versions = edit_script(5, 4)
        assert len(versions) == 5
        for version in versions:
            parse_program(version)  # every version is a valid program
        # Mutations retry until they change something, so consecutive
        # versions differ.
        for before, after in zip(versions, versions[1:]):
            assert before != after

    def test_procs_knob_sizes_the_program(self):
        versions = edit_script(3, 1, procs=8)
        assert len(parse_program(versions[0]).procedures) == 8
        # The knob changes the generated program, not just its length.
        assert versions[0] != edit_script(3, 1, procs=4)[0]

    def test_corpus_builds_distinct_programs(self):
        corpus = LoadgenCorpus.build(programs=4, seed=0, edits=2)
        assert corpus.ids == ["lg000", "lg001", "lg002", "lg003"]
        pristine = {corpus.versions[pid][0] for pid in corpus.ids}
        assert len(pristine) == 4
        rebuilt = LoadgenCorpus.build(programs=4, seed=0, edits=2)
        assert rebuilt.versions == corpus.versions

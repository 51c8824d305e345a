from pathlib import Path

import mutants

SRC = Path(__file__).resolve().parent.parent / "src" / "crfidsim"


def test_each_mutant_site_occurs_once():
    """A refactor that moves a mutated check must move its mutant too."""
    names = [name for *_, name in mutants.MUTANTS]
    assert len(names) == len(set(names))
    assert all(old != new for _, old, new, _ in mutants.MUTANTS)
    counts = {name: (SRC / f"{module}.py").read_text().count(old)
              for module, old, _, name in mutants.MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}

"""The README's Library example runs as written against the public surface."""

import re
from pathlib import Path

import etaq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_as_written():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    assert namespace["f"][7] == -16744
    assert namespace["report"].verdict == "proved"
    assert namespace["report"].bound == 58


def test_every_public_name_resolves():
    assert all(hasattr(etaq, name) for name in etaq.__all__)
    retired = {"QQ", "reduce_mod", "eisenstein_E2", "eisenstein_E", "first_mismatch", "dilate"}
    retired |= {"eisenstein_E2_level", "_euler_criterion"}
    assert not retired & set(etaq.__all__)
    assert not hasattr(etaq.eisenstein, "eisenstein_E") and not hasattr(etaq.qseries, "first_mismatch")
    # the weight-2 kernel is G_2 twisted by psi 1_N, Euler's criterion is `powers_mod`,
    # the dense Euler factor is an oracle and an Euler part is `_expand_rings`
    assert not hasattr(etaq.eisenstein, "eisenstein_E2_level") and not hasattr(etaq.congruence, "_euler_criterion")
    assert not any(hasattr(etaq.etaquot, n) for n in ("euler_factor", "expand_euler_part"))
    # a residue ring's base is certified prime by `characters.factor`, the one factorizer
    assert not any(hasattr(etaq.qseries, n) for n in ("_is_prime", "_PRIME_BASES", "_PRIME_TEST_LIMIT"))
    # each claim's derivation is handed to its verifier, which dispatch looks up on the module
    assert not any(hasattr(etaq.congruence, n) for n in ("_VERIFIERS", "_derivations"))
    assert not any(hasattr(etaq.QSeries, n) for n in ("dilate", "pow", "__pow__", "scale", "zero", "one", "inverse"))
    # a twist is theta(f, 0, chi), a sum is numpy on `residues()`, a constant is QSeries(ring, [c], P)
    assert "twist" not in etaq.__all__ and not hasattr(etaq.operators, "twist")
    assert not any(hasattr(etaq.QSeries, n) for n in ("__add__", "__sub__", "__neg__", "constant"))

"""Replay of the bundled reference dataset.

The package ships the published reference tables it reproduces as data
files: the good-quiver tables for the rank 2-4 triangular bases and the
rank-3 alternating basis, the Stokes matrices of the mutation families for
ranks 2-5, the two annulus triangulation quivers, and the braiding
identities relating the values at the unit evaluation point.

Every check recomputes its line from scratch through the library pipeline
and compares with the frozen fixture.  A handful of fixture cells correct
misprints in the published source; each such cell carries a note, and the
corresponding as-printed identity is replayed as an expected mismatch so
the report stays transparent.  A line passes when the observed outcome
equals the recorded one.
"""

from __future__ import annotations

import importlib.resources as resources
import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Basis, joyce_point
from .braid import BraidWord
from .goodness import find_good_quivers, mutation_basis
from .quiver import Quiver, apply_word, euler_form, linear_quiver
from .serialize import move_from_json, pm_from_json, solution_to_json
# stokes_product is not called here; perfbench's tracer test checks that
# wrapping reaches it through this module's namespace
from .stokes import (DTModel, LiftDisagreement, an_chamber, an_stokes, auto_stokes,
                     level2_stokes, natural_lifts, stokes_product, verify_an_jet)


def _load(name: str) -> dict:
    ref = resources.files("quiverstokes").joinpath("data").joinpath(name)
    return json.loads(ref.read_text())


@dataclass
class CheckLine:
    id: str
    ok: bool
    detail: str = ""
    note: str = ""

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        extra = f"  ({self.detail})" if self.detail and not self.ok else ""
        note = f"  [{self.note}]" if self.note else ""
        return f"{mark}  {self.id}{extra}{note}"


# ---------------------------------------------------------------------------
# Scope: tables
# ---------------------------------------------------------------------------

def check_tables() -> list[CheckLine]:
    data = _load("tables.json")
    lines = []
    for table in data["tables"]:
        basis = Basis([tuple(r) for r in table["basis"]])
        sols = find_good_quivers(basis, table["lambda"], table["p"])
        notes = table.get("notes", {})
        lines.append(CheckLine(
            f"{table['id']}: solution count",
            len(sols) == table["total_solutions"],
            f"found {len(sols)}, expected {table['total_solutions']}"))
        by_arrows = {json.dumps(solution_to_json(sol)["arrows"], sort_keys=True): sol
                     for sol in sols}
        listed_eps = set()
        for fixture in table["entries"]:
            sol = by_arrows.get(json.dumps(fixture["arrows"], sort_keys=True))
            if sol is None:
                lines.append(CheckLine(f"{fixture['id']}: quiver",
                                       False, "no matching solution"))
                continue
            listed_eps.add(sol.eps.signs)
            expected = pm_from_json(fixture["matrix"], nvars=basis.n)
            q0 = sol.quiver.substitute([Fraction(0)] * len(sol.params))
            jet = auto_stokes(q0, basis, table["p"]).product
            lines.append(CheckLine(f"{fixture['id']}: quiver+matrix",
                                   jet == expected,
                                   "jet differs from fixture",
                                   notes.get(fixture["id"], "")))
        all_eps = {sol.eps.signs for sol in sols}
        if table["listed"] == "half":
            # reversing all arrows flips every sign of the tensor; the
            # listed entries and their flips must exhaust the solution set
            flipped = {sol.eps.flipped().signs for sol in sols
                       if sol.eps.signs in listed_eps}
            lines.append(CheckLine(
                f"{table['id']}: listed half plus reversals exhaust the solutions",
                (listed_eps | flipped) == all_eps and not (listed_eps & flipped),
                "reversal closure mismatch"))
        else:
            lines.append(CheckLine(
                f"{table['id']}: listed entries exhaust the solutions",
                listed_eps == all_eps, "unlisted solutions remain"))
    return lines


# ---------------------------------------------------------------------------
# Scope: mutation families
# ---------------------------------------------------------------------------

def _family_entries():
    data = _load("mutation_stokes.json")
    for fam in data["families"]:
        for e in fam["entries"]:
            yield fam["n"], e


def _family_fixtures():
    """(id, pipeline product, fixture matrix, note) for every mutation-family
    entry: the linear quiver mutated by the entry's word, with its mutation
    basis, over the level-2 chamber of the entry's charge."""
    for n, e in _family_entries():
        q = apply_word(linear_quiver(n), e["word"])
        yield (e["id"], level2_stokes(q, mutation_basis(q), e["Z"]).product,
               pm_from_json(e["matrix"], nvars=n), e.get("note", ""))


def _annulus_fixtures():
    """(id, pipeline product, fixture matrix, note) for both annulus quivers."""
    for e in _load("annulus.json")["quivers"]:
        q = Quiver(tuple(tuple(r) for r in e["arrows"]))
        basis = Basis([tuple(r) for r in e["basis"]])
        yield (e["id"], level2_stokes(q, basis, e["Z"]).product,
               pm_from_json(e["matrix"], nvars=q.n), "")


def _pipeline_fixtures() -> list:
    """Every mutation-family fixture, then both annulus quivers, each
    product built once."""
    return [*_family_fixtures(), *_annulus_fixtures()]


def fixture_matrices_sj(fixtures: list) -> dict:
    """Unit-point evaluations of the pipeline products of ``fixtures``, as
    ``_pipeline_fixtures`` lists them (not read off the stored matrices)."""
    return {id_: prod.evaluate(joyce_point(prod.nvars))
            for id_, prod, _, _ in fixtures}


def check_mutation_tables(fixtures: list) -> list[CheckLine]:
    return [CheckLine(f"{id_}: pipeline product", prod == expected,
                      "product differs from fixture", note)
            for id_, prod, expected, note in fixtures]


# ---------------------------------------------------------------------------
# Scope: order-(n+1) jets
# ---------------------------------------------------------------------------

def check_an_jets() -> list[CheckLine]:
    lines = []
    for n in range(2, 6):
        rep = verify_an_jet(n)
        lines.append(CheckLine(
            f"a{n}: all sampled chambers give the bidiagonal matrix "
            f"({rep['chambers']} chambers)", rep["ok"],
            f"mismatches={rep['mismatched_chambers']} "
            f"lifts={rep['lift_values_mod_n_plus_1']}"))
    # the rank-4 order-3 ambiguity and its resolution at order 5
    basis = Basis.triangular(4)
    e = euler_form(linear_quiver(4))
    model = DTModel.an_intervals()
    ch1 = an_chamber([(3, 1), (1, 1), (-1, 1), (-3, 1)])
    ch2 = an_chamber([(-10, 1), (-1, 2), (1, 2), (1, 3)])

    def lift_line(id_, p, ok):
        try:
            lifts = natural_lifts(basis, e, model, [ch1, ch2], p)
        except LiftDisagreement:
            return CheckLine(id_, False, f"products disagree mod (s)^{p}")
        return CheckLine(id_, ok(lifts), f"got {len(lifts)}")

    lines.append(lift_line("a4: two order-3 lift values over the two chambers",
                           3, lambda lifts: len(lifts) == 2))
    lines.append(lift_line("a4: unique lift at order 5, equal to the "
                           "bidiagonal matrix",
                           5, lambda lifts: lifts == [an_stokes(4)]))
    return lines


# ---------------------------------------------------------------------------
# Scope: braiding identities
# ---------------------------------------------------------------------------

def check_relations(fixtures: list) -> list[CheckLine]:
    return _replay(_load("relations.json")["relations"],
                   fixture_matrices_sj(fixtures))


def _replay(relations, mats: dict) -> list[CheckLine]:
    """One line per relation, replayed on the unit-point values ``mats``."""
    annulus = _load("annulus.json")

    def resolve(ref):
        if "an" in ref:
            n = ref["an"]
            return an_stokes(n).evaluate(joyce_point(n))
        if "ref" in ref:
            return mats[ref["ref"]]
        if ref.get("annulus_printed_S"):
            return pm_from_json(annulus["printed_S"], nvars=3).evaluate(joyce_point(3))
        raise ValueError(f"unresolvable reference {ref!r}")

    lines = []
    for rel in relations:
        base = resolve(rel["base"])
        target = resolve(rel["target"])
        word = BraidWord(tuple(move_from_json(mv) for mv in rel["word"]))
        matched = word.apply(base) == target
        expect = rel["expect"]
        ok = matched == (expect == "match")
        detail = ("identity holds but a mismatch was recorded" if matched
                  else "identity fails")
        note = rel.get("note", "")
        if expect == "mismatch" and ok:
            note = (note + "; " if note else "") + "fails as printed, as recorded"
        lines.append(CheckLine(rel["id"], ok, detail, note))
    return lines


# ---------------------------------------------------------------------------
# Scope: annulus
# ---------------------------------------------------------------------------

def check_annulus() -> list[CheckLine]:
    """The two annulus products and the two annulus relations."""
    fixtures = list(_annulus_fixtures())
    relations = [rel for rel in _load("relations.json")["relations"]
                 if rel["id"].startswith("annulus")]
    return (check_mutation_tables(fixtures)
            + _replay(relations, fixture_matrices_sj(fixtures)))


def check_mutation_theorem() -> list[CheckLine]:
    """Mutation tables and braiding identities from one pass over the
    pipeline fixtures."""
    fixtures = _pipeline_fixtures()
    return check_mutation_tables(fixtures) + check_relations(fixtures)


# Every scope of `verify-paper`, in the order the CLI lists them.
SCOPES = {
    "tables": check_tables,
    "an_jets": check_an_jets,
    "mutation_theorem": check_mutation_theorem,
    "annulus": check_annulus,
    "braid_relations": lambda: check_relations(_pipeline_fixtures()),
    "all": lambda: check_tables() + check_an_jets() + check_mutation_theorem(),
}


def run_scope(scope: str) -> list[CheckLine]:
    """The check lines of one ``SCOPES`` entry."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {list(SCOPES)}")
    return SCOPES[scope]()

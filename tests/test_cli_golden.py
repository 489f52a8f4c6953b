"""Byte-for-byte CLI output: the README command-line examples, semisimple
characters and a plan through pi_{w_o}, graph JSON and DOT, truncations,
Schur modules and validation errors, against the files in tests/golden/."""

import json
from pathlib import Path

import pytest

from pmcrystal import crystal, monomial, truncation, weightring
from pmcrystal.cli import run
from conftest import refuse_everywhere, replace_everywhere

GOLDEN = Path(__file__).parent / "golden"
R = "[[1,3,1],[3,1,1],[3,3,1]]"
SCHUR_DIAGRAM = "[[1,1],[2,2],[3,2],[2,3],[4,3]]"
CASES = {
    "decompose_a3": (0, ["decompose", "--cartan", "A", "--rank", "3", "--R", R]),
    "decompose_gl6": (0, ["decompose", "--cartan", "GL", "--rank", "6",
                          "--R", "[[1,5,1],[3,1,1],[4,6,1]]"]),
    "character_gl4_truncation": (0, ["character", "--cartan", "GL", "--rank", "4", "--R", R,
                                     "--truncation",
                                     '{"thresholds": {"1": 3, "2": 2, "3": 1}}']),
    "truncate_a3": (0, ["truncate", "--cartan", "A", "--rank", "3", "--R", R]),
    "plan_a3": (0, ["plan", "--cartan", "A", "--rank", "3", "--R", R]),
    "graph_a2_dot": (0, ["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2]]",
                         "--format", "dot"]),
    "graph_a2_json": (0, ["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2]]"]),
    # negative exponents, exponents of size 2 and weights with a det coordinate
    "graph_gl3_json": (0, ["graph", "--cartan", "GL", "--rank", "3",
                           "--R", "[[1,1,1],[2,2,1]]"]),
    "graph_d4_dot": (0, ["graph", "--cartan", "D", "--rank", "4", "--R", "[[1,0,1],[3,2,1]]",
                         "--format", "dot"]),
    "graph_d4_json": (0, ["graph", "--cartan", "D", "--rank", "4", "--R", "[[1,0,1],[3,2,1]]"]),
    "truncate_gl3": (0, ["truncate", "--cartan", "GL", "--rank", "3", "--R", "[[1,1,2],[2,2,1]]",
                         "--truncation", '{"thresholds": {"1": -1, "2": 0}}']),
    "schur_sequence": (0, ["schur", "--sequence", "[[1],[1],[2,1,1]]"]),
    "schur_diagram": (0, ["schur", "--diagram", SCHUR_DIAGRAM]),
    # a rank far above the sequence length
    "schur_sequence_rank32": (0, ["schur", "--sequence", "[[1],[1],[2,1,1]]",
                                  "--rank", "32"]),
    # gapped columns, convexified by a row order other than the given one
    "schur_diagram_gapped": (0, ["schur", "--diagram",
                                 "[[1,1],[3,1],[2,2],[4,2],[5,3],[6,3],[5,4]]"]),
    "stable_coeffs": (0, ["stable", "--R", "[[1,5,1],[3,1,1],[4,6,1]]",
                          "--coeffs", "--restrict", "5"]),
    # semisimple characters: negative fundamental coordinates, pi_{w_o} and
    # its W-invariance check
    "character_d4": (0, ["character", "--cartan", "D", "--rank", "4",
                         "--R", "[[1,0,1],[2,1,1],[3,2,1]]"]),
    "character_e6": (0, ["character", "--cartan", "E6", "--rank", "6",
                         "--R", "[[1,0,1],[6,4,1]]"]),
    "plan_d4": (0, ["plan", "--cartan", "D", "--rank", "4",
                    "--R", "[[1,0,1],[1,6,1],[2,5,1]]"]),
    # far-apart points: the fold meets a W-invariant character at a Multiply
    "character_d4_far_apart": (0, ["character", "--cartan", "D", "--rank", "4",
                                   "--R", "[[1,0,1],[3,30,1],[4,60,1]]"]),
    "plan_a3_far_apart": (0, ["plan", "--cartan", "A", "--rank", "3",
                              "--R", "[[1,1,1],[1,21,1],[2,0,2]]"]),
    # a root datum that does not exist, and a truncation that misses R
    "error_bad_rank": (2, ["decompose", "--cartan", "D", "--rank", "3", "--R", "[]"]),
    "error_truncation_misses_r": (2, ["truncate", "--cartan", "A", "--rank", "2",
                                      "--R", "[[1,1,1]]", "--truncation",
                                      '{"thresholds": {"1": 3, "2": 2}}']),
    # schur --diagram ranks refused: by the GL datum, then by the sequence
    "error_schur_rank_over_ceiling": (2, ["schur", "--diagram", SCHUR_DIAGRAM,
                                          "--rank", "33"]),
    "error_schur_rank_below_sequence": (2, ["schur", "--diagram", SCHUR_DIAGRAM,
                                            "--rank", "1"]),
    "error_schur_rank_zero": (2, ["schur", "--diagram", SCHUR_DIAGRAM, "--rank", "0"]),
    # eight rows, gapped columns and none of the 8! row orders convex
    "error_schur_no_convex_row_order": (2, ["schur", "--diagram",
                                            "[[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],"
                                            "[8,8],[2,1],[3,2],[4,3],[5,4],[6,5],[7,6],"
                                            "[8,7],[1,8],[1,9],[3,9],[5,9]]"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code, argv = CASES[name]
    assert run(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_schur_needs_neither_pi_longest_nor_the_peel(capsys, monkeypatch):
    # both schur routes straighten the flagged character: they never build
    # pi_{w_o} of it or peel a character, wherever those are imported
    refuse_everywhere(monkeypatch, weightring, ("pi_longest", "weyl_decompose"))
    for case in ("schur_sequence", "schur_diagram"):
        test_cli_output_matches_golden(capsys, case)


def test_schur_straightens_at_the_sequence_length(capsys, monkeypatch):
    # at --rank 32 both schur routes straighten in GL_r alone, r the
    # sequence length, and print what they print at the default rank
    ranks = []
    original = weightring.straighten

    def recording(datum, f):
        ranks.append(datum.rank)
        return original(datum, f)

    replace_everywhere(monkeypatch, weightring, "straighten", recording)
    test_cli_output_matches_golden(capsys, "schur_sequence_rank32")
    assert ranks == [3]
    _, argv = CASES["schur_diagram_gapped"]
    assert run(argv + ["--rank", "32"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    expected = json.loads((GOLDEN / "schur_diagram_gapped.out").read_text())["result"]
    assert result == dict(expected, rank=32)
    assert ranks == [3, 6]
    # the empty sequence and the empty diagram straighten in GL_1 (exit 0:
    # the empty diagram's oracles agree)
    for argv in (["--sequence", "[]"], ["--diagram", "[]"]):
        assert run(["schur", *argv, "--rank", "32"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["decomposition"] == {"[]": 1}
    assert ranks == [3, 6, 1, 1]


def test_decompose_straightens_the_plan_fold(capsys, monkeypatch):
    # decompose's character route straightens the plan fold: it never
    # builds pi_{w_o} of it, the full character, or a peel
    refuse_everywhere(monkeypatch, weightring, ("pi_longest", "weyl_decompose"))
    refuse_everywhere(monkeypatch, truncation, ("full_character",))
    for case in ("decompose_a3", "decompose_gl6", "stable_coeffs"):
        test_cli_output_matches_golden(capsys, case)


def test_decompose_walks_without_the_graph(capsys, monkeypatch):
    # decompose's enumeration route walks the packed keys of M(R): it never
    # builds the crystal graph, wherever graph_over is imported
    refuse_everywhere(monkeypatch, crystal, ("graph_over",))
    cases = [name for name in CASES if name.startswith("decompose_")] + ["stable_coeffs"]
    assert len(cases) == 3
    for case in cases:
        test_cli_output_matches_golden(capsys, case)


def test_commands_run_no_monomial_closure(capsys, monkeypatch):
    # decompose, graph and truncate discover their factors on packed keys:
    # no Monomial closure, f_op, e_op or mono_mul runs, wherever bound
    refuse_everywhere(monkeypatch, crystal, ("closure",))
    refuse_everywhere(monkeypatch, monomial, ("f_op", "e_op", "mono_mul"))
    cases = [name for name in CASES if name.startswith(("decompose_", "graph_", "truncate_"))]
    assert len(cases) == 9
    for case in cases + ["stable_coeffs"]:
        test_cli_output_matches_golden(capsys, case)

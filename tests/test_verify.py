from pathlib import Path

import pytest

import parastar.radii as radii
import parastar.verify as verify
from parastar.errors import ParamRange
from parastar.verify import certify_sample_members, run_all


@pytest.fixture(scope="module")
def full_run():
    return run_all()


class TestSelectBeforeRun:
    def test_unselected_radius_checks_never_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a radius root was computed")

        monkeypatch.setattr(radii, "oracle_root", fail)
        reports = run_all(only="growth/covering")
        assert [r.check_id for r in reports] == ["growth/covering_constant"]
        assert reports[0].passed

    def test_one_radius_check_solves_once(self, monkeypatch):
        solve = radii.oracle_root
        calls = []
        monkeypatch.setattr(radii, "oracle_root",
                            lambda entry: calls.append(entry.label) or solve(entry))
        reports = run_all(only="radius/sp")
        assert calls == ["sp"]
        assert [r.check_id for r in reports] == ["radius/sp"]


class TestFullRun:
    def test_ids_unique(self, full_run):
        ids = [r.check_id for r in full_run]
        assert len(ids) == len(set(ids)) == 74

    def test_lines_match_committed_output(self, full_run):
        # byte for byte the `verify --all` output at seed 0; a change that
        # moves a value on purpose regenerates tests/data/verify_all_seed0.jsonl
        # and names every changed line
        path = Path(__file__).resolve().parent / "data" / "verify_all_seed0.jsonl"
        expected = path.read_text(encoding="utf-8")
        assert "".join(r.to_json() + "\n" for r in full_run) == expected

    def test_passed_follows_gap(self, full_run):
        # every row passes or fails by gap <= tolerance, with no override
        for r in full_run:
            assert r.passed == (r.gap <= r.tolerance), r.check_id

    @pytest.mark.parametrize("only", ["growth", "radius/sp", "witness", "region", "certify",
                                      "janowski", "c0.3"])
    def test_filtered_run_equals_full_run_lines(self, full_run, only):
        assert run_all(only=only) == [r for r in full_run if only in r.check_id]

    @pytest.mark.parametrize("check_id", ["radius/alpha_exp(alpha=0.8)",
                                          "radius/janowski(A=0.3;B=-0.1)"])
    def test_capped_line_names_no_solver(self, full_run, check_id):
        # a capped radius is 1 by a condition check at the bracket end, not a root
        (rep,) = [r for r in full_run if r.check_id == check_id]
        assert rep.closed_form == rep.oracle_value == 1.0
        assert rep.notes == "oracle=cap"

    def test_solved_lines_name_itp(self, full_run):
        notes = [r.notes for r in full_run if r.check_id.startswith("radius/")]
        assert sum(n.endswith("oracle=itp") for n in notes) == len(notes) - 2

    def test_implication_counts_requested_members(self, full_run):
        (rep,) = [r for r in full_run if r.check_id == "certify/implication_t0"]
        assert rep.passed
        assert rep.closed_form == rep.oracle_value == rep.samples == 50


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 1.0, "0", None, True, False])
    def test_negative_or_non_int_seed_raises(self, seed, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "_checks", fail)
        with pytest.raises(ParamRange, match="seed must be a non-negative int"):
            run_all(seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.0, "0", None, True, False])
    def test_member_draw_checks_seed(self, seed):
        # random.Random(-1) replays seed 1, so -1 would repeat seed 1's members;
        # bool is an int, so True would too
        with pytest.raises(ParamRange, match="seed must be a non-negative int"):
            certify_sample_members(1, 0.0, seed=seed)

    @pytest.mark.parametrize("samples", [2.5, 2.0, "3", True])
    def test_non_int_samples_raises(self, samples, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "_checks", fail)
        with pytest.raises(ParamRange, match="samples must be an int"):
            run_all(samples=samples)

    @pytest.mark.parametrize("n_members", [-1, 2.5, True])
    def test_member_draw_checks_count(self, n_members):
        # 2.5 would draw three members, -1 none and True (an int) one
        with pytest.raises(ParamRange, match="n_members must be"):
            certify_sample_members(n_members, 0.0)


class TestImplication:
    def test_bad_parameter_raises(self):
        # only a vanishing f or f' skips a member; t outside [0, 1] is an error
        with pytest.raises(ParamRange):
            certify_sample_members(2, t=1.5)

    @pytest.mark.parametrize("drawn", [0, 1])
    def test_short_draw_fails(self, monkeypatch, drawn):
        draw = verify.certify_sample_members
        monkeypatch.setattr(verify, "certify_sample_members",
                            lambda n_members, t, seed: draw(drawn, t, seed))
        (rep,) = run_all(only="certify/implication", samples=2)
        assert rep.samples == drawn
        assert not rep.passed

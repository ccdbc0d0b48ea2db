"""Trial-archive tests: schema, determinism contract, reconciliation.

The load-bearing guarantees (docs/OBSERVABILITY.md "Explain & landscape
export"):

* the archive is **byte-identical at any ``--jobs`` count**, clean or
  under a seeded fault storm, and a ``--resume`` replays to the same
  bytes at any jobs count;
* archived ``counters`` reconcile **exactly** with a fresh
  :func:`repro.gpusim.executor.simulate` of the same config — the
  archive re-derives, it never copies a perturbed measurement;
* with no archive installed, tuning results are untouched
  (zero perturbation).
"""

import json

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.executor import simulate
from repro.gpusim.faults import FaultPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.obs.archive import (
    ArchiveError,
    ArchiveRecord,
    TrialArchive,
    archive_stream,
    current_archive,
    derive_record,
    disable_archive_in_process,
    main as archive_main,
    read_archive,
    validate_archive,
)
from repro.obs.events import read_events
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import STATUS_OK, TrialOutcome
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.parallel import FamilyKernelBuilder, ParallelEvaluator
from repro.tuning.robust import RobustTuningSession
from repro.tuning.space import ParameterSpace

GRID = (64, 64, 32)
DEVICE = "gtx580"
SPACE = ParameterSpace(
    tx_values=(16, 32), ty_values=(2, 4), rx_values=(1, 2), ry_values=(1,)
)
STORM = "seed=7,launch=0.1,hang=0.02,throttle=0.05"


def build(cfg: BlockConfig):
    return make_kernel("inplane_fullslice", symmetric(2), cfg)


def archive_tune(path, *, jobs=None, session="t"):
    device = get_device(DEVICE)
    with TrialArchive(path, session=session) as arc, archive_stream(arc):
        if jobs is None:
            result = exhaustive_tune(build, device, GRID, SPACE)
        else:
            fbuild = FamilyKernelBuilder("inplane_fullslice", 2, "sp")
            with ParallelEvaluator(device, jobs=jobs, worker_cap=4) as ev:
                result = exhaustive_tune(
                    fbuild, device, GRID, SPACE, evaluator=ev
                )
    return result


class TestSchemaRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        header, records = read_archive(path, strict=True)
        assert header["archive"] == "repro.obs.archive"
        assert header["version"] == 1
        assert header["session"] == "t"
        assert records, "an exhaustive sweep must archive every config"
        for r in records:
            clone = ArchiveRecord.from_obj(json.loads(json.dumps(r.to_obj())))
            assert clone == r

    def test_records_cover_every_evaluated_config(self, tmp_path):
        path = tmp_path / "a.jsonl"
        result = archive_tune(path)
        _header, records = read_archive(path)
        measured = [r for r in records if r.measured]
        assert len(measured) == len(result.entries)
        assert {r.label for r in measured} == {
            e.config.label() for e in result.entries
        }

    def test_measured_record_carries_all_derivations(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        record = next(r for r in read_archive(path)[1] if r.measured)
        assert record.predicted is not None and record.predicted > 0
        assert record.estimate is not None
        assert record.estimate["mpoints_per_s"] > 0
        assert record.estimate_error is None
        assert record.counters is not None
        assert record.counters["gld_transactions"] > 0

    def test_torn_final_line_tolerated_unless_strict(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        whole = read_archive(path)[1]
        path.write_text(path.read_text() + '{"config": [16, 2')
        assert len(read_archive(path)[1]) == len(whole)
        with pytest.raises(ArchiveError, match="corrupt"):
            read_archive(path, strict=True)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"stream": "repro.obs.events", "version": 1}\n')
        with pytest.raises(ArchiveError, match="header"):
            read_archive(path)

    def test_bad_status_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["status"] = "exploded"
        path.write_text("\n".join([lines[0], json.dumps(obj)]) + "\n")
        with pytest.raises(ArchiveError, match="status"):
            read_archive(path)

    def test_validator_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        archive_tune(good)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert archive_main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        assert archive_main([str(good), str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert validate_archive(good) == len(read_archive(good)[1])


class TestEveryFamily:
    @pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
    def test_archived_tune_validates(self, tmp_path, family):
        path = tmp_path / f"{family}.jsonl"
        device = get_device(DEVICE)
        with TrialArchive(path, session=family) as arc, archive_stream(arc):
            exhaustive_tune(
                lambda cfg: make_kernel(family, 2, cfg), device, GRID, SPACE
            )
        records = read_archive(path, strict=True)[1]
        assert validate_archive(path) == len(records) > 0
        measured = [r for r in records if r.measured]
        assert measured
        if family.startswith("inplane_") or family == "nvstencil":
            assert all(r.estimate is not None for r in measured)
        else:
            # No access-plan lowering for this family: the estimator's
            # refusal is archived instead of escaping the tune.
            assert all(r.estimate is None for r in records)
            assert all(
                r.estimate_error.startswith("TypeError: ") for r in records
            )


class TestDeterminismContract:
    def test_jobs_1_vs_4_byte_identical(self, tmp_path):
        p1, p4 = tmp_path / "j1.jsonl", tmp_path / "j4.jsonl"
        archive_tune(p1, jobs=1)
        archive_tune(p4, jobs=4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_storm_jobs_and_resume_byte_identical(self, tmp_path):
        faults = FaultPlan.parse(STORM)
        device = get_device(DEVICE)
        fbuild = FamilyKernelBuilder("inplane_fullslice", 2, "sp")

        def storm(jobs, name, *, resume=False, journal="journal.jsonl"):
            path = tmp_path / name
            with RobustTuningSession(
                device, GRID, faults=faults,
                journal_path=tmp_path / journal, resume=resume,
                jobs=jobs, worker_cap=4,
                archive_path=path, session_key="storm",
            ) as session:
                session.run(fbuild, method="exhaustive", space=SPACE)
            return path.read_bytes()

        fresh1 = storm(1, "s1.jsonl", journal="journal1.jsonl")
        fresh4 = storm(4, "s4.jsonl", journal="journal4.jsonl")
        assert fresh1 == fresh4
        resumed1 = storm(1, "r1.jsonl", resume=True, journal="journal1.jsonl")
        resumed4 = storm(4, "r4.jsonl", resume=True, journal="journal1.jsonl")
        assert resumed1 == resumed4
        # Fresh vs resumed may differ only in the honest `replayed` flag.
        fresh = [json.loads(x) for x in fresh1.decode().splitlines()[1:]]
        resumed = [json.loads(x) for x in resumed1.decode().splitlines()[1:]]
        assert len(fresh) == len(resumed)
        for f, r in zip(fresh, resumed):
            diff = {k for k in f if f[k] != r[k]}
            assert diff <= {"replayed"}

    def test_no_archive_means_zero_perturbation(self, tmp_path):
        device = get_device(DEVICE)
        with_archive = archive_tune(tmp_path / "a.jsonl")
        plain = exhaustive_tune(build, device, GRID, SPACE)
        assert plain.best.config == with_archive.best.config
        assert plain.best.mpoints_per_s == with_archive.best.mpoints_per_s
        assert [e.mpoints_per_s for e in plain.entries] == [
            e.mpoints_per_s for e in with_archive.entries
        ]

    def test_workers_never_capture(self):
        disable_archive_in_process()
        assert current_archive() is None


class TestReconciliation:
    def test_archived_counters_match_fresh_simulation_exactly(self, tmp_path):
        path = tmp_path / "a.jsonl"
        archive_tune(path)
        for record in read_archive(path)[1]:
            if not record.measured:
                continue
            report = simulate(build(BlockConfig(*record.config)), DEVICE, GRID)
            assert record.counters == report.counters.as_dict()

    def test_faulted_storm_counters_still_reconcile(self, tmp_path):
        # Fault injection perturbs measurement, never the derivations:
        # even records measured under a storm archive clean-launch
        # counters that a fault-free resimulation reproduces bit-for-bit.
        faults = FaultPlan.parse(STORM)
        device = get_device(DEVICE)
        fbuild = FamilyKernelBuilder("inplane_fullslice", 2, "sp")
        path = tmp_path / "storm.jsonl"
        session = RobustTuningSession(
            device, GRID, faults=faults, journal_path=tmp_path / "j.jsonl",
            archive_path=path, session_key="storm",
        )
        session.run(fbuild, method="exhaustive", space=SPACE)
        records = read_archive(path)[1]
        assert any(r.attempts > 1 for r in records), "storm should retry"
        for record in records:
            if record.counters is None:
                continue
            report = simulate(build(BlockConfig(*record.config)), DEVICE, GRID)
            assert record.counters == report.counters.as_dict()

    def test_derive_record_is_pure_of_measurement(self):
        device = get_device(DEVICE)
        cfg = BlockConfig(32, 4, 1, 1)
        live = TrialOutcome(config=cfg, status=STATUS_OK, mpoints_per_s=123.0)
        replayed = TrialOutcome(
            config=cfg, status=STATUS_OK, mpoints_per_s=123.0, replayed=True
        )
        a = derive_record(live, build=build, device=device, grid_shape=GRID)
        b = derive_record(replayed, build=build, device=device, grid_shape=GRID)
        assert a.counters == b.counters
        assert a.predicted == b.predicted
        assert a.estimate == b.estimate


class TestArchiveEvents:
    def test_session_emits_archive_start_and_finished(self, tmp_path):
        device = get_device(DEVICE)
        fbuild = FamilyKernelBuilder("inplane_fullslice", 2, "sp")
        archive = tmp_path / "a.jsonl"
        events = tmp_path / "e.jsonl"
        session = RobustTuningSession(
            device, GRID, journal_path=tmp_path / "j.jsonl",
            archive_path=archive, events_path=events, session_key="ev",
        )
        session.run(fbuild, method="exhaustive", space=SPACE)
        stream = read_events(events, strict=True)[1]
        names = [e.name for e in stream]
        assert "archive.start" in names
        assert "archive.finished" in names
        finished = next(e for e in stream if e.name == "archive.finished")
        assert dict(finished.fields)["records"] == len(
            read_archive(archive)[1]
        )

"""One execution mode: a round runs in one simulator on one thread.

The ``parallel=`` subgroup fan-out is gone.  The four entry points that
``bench/workloads.py`` drives keep a ``parallel`` keyword that accepts
only ``"off"``; a two-layer round grades a dropout no subgroup can
recover at the watch tick that detects it; and ``run_jobs`` — the
ordered map the repo benchmark's ``par.*`` probes time — keeps item
order in every mode.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.campaign import run_campaign
from repro.chaos import Crash, FaultSchedule, check_liveness
from repro.chaos.scale import run_scale_trial
from repro.core import MultiLayerTopology, run_xlayer_wire_round
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.par import run_jobs

RNG = lambda seed=0: np.random.default_rng(seed)


def _models(topo, seed, d=24):
    rng = RNG(seed)
    return [rng.normal(size=d) for _ in range(topo.n_peers)]


def _square(x):
    return x * x


class TestWireRoundParity:
    @pytest.mark.parametrize("crash_ms, lost", [
        (1.0, 0),   # before the share bundles land
        (20.0, 3),  # after: every holder of index 3 is among the victims
    ])
    def test_unrecoverable_dropout_grades_alike(self, crash_ms, lost):
        # 3-of-5 FT-SAC tolerates two dropouts; three non-leaders of
        # group 1 go.  The round names the lost share index at the first
        # watch tick instead of idling to the round timeout.
        topo = Topology.by_group_size(15, 5)
        models = _models(topo, 13)
        victims = [p for p in topo.groups[1] if p != topo.leaders[1]][:3]
        result = run_two_layer_wire_round(
            topo, models, k=3, seed=13,
            schedule=FaultSchedule([Crash(crash_ms, p) for p in victims]),
        )
        assert check_liveness(result).ok, result.outcome
        assert result.outcome.status == "unrecoverable_dropout"
        assert result.outcome.reason.startswith(
            f"subgroup 1: share index {lost} is lost"
        )
        assert result.average is None and result.finish_time_ms is None
        assert result.end_time_ms == 100.0

    def test_unknown_mode_rejected(self):
        # Every mode but "off" is refused by all four entry points, and
        # the CLI has no --parallel flag.
        two_layer = Topology.by_group_size(6, 3)
        tree = MultiLayerTopology(2, 2)
        removed = "subgroup fan-out was removed"
        for mode in ("threads", "process", "no"):
            with pytest.raises(ValueError, match=removed):
                run_two_layer_wire_round(
                    two_layer, _models(two_layer, 0), parallel=mode
                )
            with pytest.raises(ValueError, match=removed):
                run_xlayer_wire_round(
                    tree, np.zeros((tree.n_peers, 2)), parallel=mode
                )
            with pytest.raises(ValueError, match=removed):
                run_scale_trial(40, depth=3, parallel=mode)
            with pytest.raises(ValueError, match=removed):
                run_campaign(seed=0, rounds=2, raft=False, parallel=mode)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--parallel", "off"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="parallel mode"):
            run_jobs(_square, [1, 2], "fork")


class TestRunJobs:
    def test_off_and_single_item_run_inline(self):
        assert run_jobs(lambda x: x * 2, [1, 2, 3], "off") == [2, 4, 6]
        assert run_jobs(lambda x: x + 1, [41], "threads") == [42]

    def test_results_in_item_order(self):
        tasks = list(range(8))
        for mode in ("threads", "process"):
            assert run_jobs(_square, tasks, mode) == [x * x for x in tasks]

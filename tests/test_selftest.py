from ewflow.oracle import GuidedOracle
from ewflow.paths import velocity_from_score
from ewflow.selftest import run_selftest


def test_selftest_all_pass_and_report_wallclock():
    results = run_selftest()
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results if not r.passed]
    assert all(r.seconds >= 0 for r in results)
    assert len(results) >= 6


def test_selftest_catches_injected_score_sign_flip(monkeypatch):
    def flipped(self, x, t, route="auto"):
        return velocity_from_score(self.sched, x, -self.guided_score(x, t, route="analytic"), t)

    monkeypatch.setattr(GuidedOracle, "guided_velocity", flipped)
    results = run_selftest()
    broken = [r for r in results if "continuity" in r.name]
    assert len(broken) == 1 and not broken[0].passed

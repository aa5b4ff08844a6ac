"""Timer / Timings accounting."""

import time

from repro.timing import EXTRACT, MATCH, Timer, Timings


class TestTimings:
    def test_accumulates(self):
        t = Timings()
        t.add(MATCH, 0.5)
        t.add(MATCH, 0.25)
        assert t.get(MATCH) == 0.75

    def test_others_is_remainder(self):
        t = Timings(total=2.0)
        t.add(MATCH, 0.5)
        t.add(EXTRACT, 1.0)
        assert t.others == 0.5

    def test_others_never_negative(self):
        t = Timings(total=1.0)
        t.add(MATCH, 2.0)
        assert t.others == 0.0

    def test_as_row_keys(self):
        row = Timings(total=1.0).as_row()
        assert set(row) == {"match", "extraction", "copy", "opt", "io",
                            "others", "total"}


class TestTimer:
    def test_measure_accumulates(self):
        timings = Timings()
        timer = Timer(timings)
        with timer.measure(MATCH):
            time.sleep(0.01)
        assert timings.get(MATCH) >= 0.009

    def test_nested_measure_not_double_counted(self):
        timings = Timings()
        timer = Timer(timings)
        with timer.measure(MATCH):
            with timer.measure(EXTRACT):
                time.sleep(0.01)
        assert timings.get(EXTRACT) == 0.0
        assert timings.get(MATCH) >= 0.009

    def test_measure_total(self):
        timings = Timings()
        timer = Timer(timings)
        with timer.measure_total():
            with timer.measure(MATCH):
                pass
        assert timings.total > 0

    def test_exception_still_recorded(self):
        timings = Timings()
        timer = Timer(timings)
        try:
            with timer.measure(MATCH):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert timings.get(MATCH) >= 0.0
        assert not timer._active

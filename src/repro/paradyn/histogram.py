"""Paradyn's fixed-size time histogram with bin folding.

Paradyn stores each metric/focus time series in a *fixed* number of bins;
when the execution outgrows the covered interval, the histogram **folds**:
bin width doubles and adjacent bin pairs merge.  Memory stays constant
for arbitrarily long runs while early data keeps (coarser) resolution —
the property that let Paradyn monitor long-running parallel jobs.

Two accumulation modes:

* ``sum`` — the bin holds the sum of values landing in it (counts,
  deltas);
* ``last`` — the bin holds the most recent value (gauge-style metrics
  like cumulative CPU).
"""

from __future__ import annotations

class TimeHistogram:
    """Fixed-bin-count, folding time histogram.

    >>> h = TimeHistogram(bins=4, initial_bin_width=1.0)
    >>> for t in range(8):
    ...     h.add(float(t), 1.0)
    >>> h.bin_width   # folded once: 4 bins of 2s cover [0, 8)
    2.0
    >>> h.total()
    8.0
    """

    def __init__(
        self,
        *,
        bins: int = 100,
        initial_bin_width: float = 0.01,
        mode: str = "sum",
    ):
        if bins < 2 or bins % 2 != 0:
            raise ValueError("bins must be an even number >= 2")
        if initial_bin_width <= 0:
            raise ValueError("initial_bin_width must be positive")
        if mode not in ("sum", "last"):
            raise ValueError(f"unknown mode {mode!r}")
        self.bins = bins
        # tdp-guard: bin_width -> volatile
        # (folded only by the sampling thread; cross-thread span/value
        # queries are diagnostic and tolerate a one-fold-stale width)
        self.bin_width = float(initial_bin_width)
        self.mode = mode
        self._values = [0.0] * bins
        self._counts = [0] * bins
        self.folds = 0
        self._total_samples = 0

    # -- accumulation ----------------------------------------------------------

    def add(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (seconds from the series origin)."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        while t >= self.bins * self.bin_width:
            self._fold()
        index = int(t / self.bin_width)
        if self.mode == "sum":
            self._values[index] += value
        else:  # last
            self._values[index] = value
        self._counts[index] += 1
        self._total_samples += 1

    def _fold(self) -> None:
        """Double the bin width; merge adjacent pairs into the lower half."""
        half = self.bins // 2
        new_values = [0.0] * self.bins
        new_counts = [0] * self.bins
        for i in range(half):
            a, b = self._values[2 * i], self._values[2 * i + 1]
            ca, cb = self._counts[2 * i], self._counts[2 * i + 1]
            if self.mode == "sum":
                new_values[i] = a + b
            else:  # last: the later bin wins if it has data
                new_values[i] = b if cb else a
            new_counts[i] = ca + cb
        self._values = new_values
        self._counts = new_counts
        self.bin_width *= 2.0
        self.folds += 1

    # -- queries ------------------------------------------------------------------

    @property
    def span(self) -> float:
        """Seconds of execution the histogram currently covers."""
        return self.bins * self.bin_width

    @property
    def sample_count(self) -> int:
        return self._total_samples

    def total(self) -> float:
        """Sum over all bins (mode 'sum' only makes this meaningful)."""
        return sum(self._values)

    def value_at(self, t: float) -> float:
        """Value of the bin containing time ``t`` (0.0 beyond the span)."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        index = int(t / self.bin_width)
        if index >= self.bins:
            return 0.0
        return self._values[index]

    def series(self) -> list[float]:
        """All bin values, oldest first (for rendering)."""
        return list(self._values)

    @classmethod
    def from_points(
        cls,
        points: list[tuple[float, float]],
        *,
        bins: int = 100,
        mode: str = "last",
    ) -> "TimeHistogram":
        """Build a histogram from (time, value) points (a session series).

        The initial bin width is sized so the first fold happens only if
        the series is longer than expected — but sized from the data, so
        short series keep fine resolution.
        """
        if not points:
            return cls(bins=bins, initial_bin_width=0.01, mode=mode)
        t_max = max(t for t, _v in points)
        # Size so t_max lands inside the last bin (no immediate fold).
        width = max(t_max / (bins - 1), 1e-9) if t_max > 0 else 0.01
        hist = cls(bins=bins, initial_bin_width=width, mode=mode)
        for t, v in points:
            hist.add(max(0.0, t), v)
        return hist

"""Hybrid branch predictor (bimodal + gshare with a chooser) and BTB.

Models the paper's front end: a 6K-entry hybrid predictor with a
2K-entry BTB.  The timing simulator is trace-driven on the correct
path, so the predictor's job is to decide, per dynamic branch, whether
the fetch stream would have been redirected (a misprediction) — the
penalty is applied by the timing core.

The default sizes give 2K entries to each of the three tables
(bimodal, gshare, chooser), i.e. the paper's "6K-entry hybrid".
"""

from __future__ import annotations

from typing import List


class _CounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, index_bits: int, initial: int = 1) -> None:
        self.mask = (1 << index_bits) - 1
        self.counters: List[int] = [initial] * (1 << index_bits)

    def predict(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        i = index & self.mask
        value = self.counters[i]
        if taken:
            if value < 3:
                self.counters[i] = value + 1
        elif value > 0:
            self.counters[i] = value - 1


class HybridPredictor:
    """Bimodal + gshare with a chooser, plus a direct-mapped BTB.

    Args:
        bimodal_bits: log2 entries in the bimodal table.
        gshare_bits: log2 entries in the gshare table (and history bits).
        chooser_bits: log2 entries in the chooser table.
        btb_bits: log2 entries in the BTB.
    """

    def __init__(
        self,
        bimodal_bits: int = 11,
        gshare_bits: int = 11,
        chooser_bits: int = 11,
        btb_bits: int = 11,
    ) -> None:
        self.bimodal = _CounterTable(bimodal_bits)
        self.gshare = _CounterTable(gshare_bits)
        # Chooser counter >= 2 means "use gshare".
        self.chooser = _CounterTable(chooser_bits, initial=2)
        self.history = 0
        self.history_mask = (1 << gshare_bits) - 1
        self.btb_mask = (1 << btb_bits) - 1
        self.btb: List[int] = [-1] * (1 << btb_bits)
        self.btb_targets: List[int] = [0] * (1 << btb_bits)
        # statistics
        self.branches = 0
        self.mispredictions = 0
        self.btb_misses = 0

    def predict_and_update(self, pc: int, taken: bool, target: int) -> bool:
        """Run one conditional branch through the predictor.

        Args:
            pc: static PC of the branch.
            taken: actual outcome.
            target: actual taken target PC.

        Returns:
            True if the prediction (direction and, when taken, target)
            was correct.

        Runs once per simulated conditional branch, so it indexes the
        three tables' counter lists directly rather than through
        :class:`_CounterTable` calls (same 2-bit saturating updates).
        """
        self.branches += 1
        bimodal = self.bimodal.counters
        gshare = self.gshare.counters
        chooser = self.chooser.counters
        bi = pc & self.bimodal.mask
        gi = (pc ^ self.history) & self.gshare.mask
        b = bimodal[bi]
        g = gshare[gi]
        bimodal_pred = b >= 2
        gshare_pred = g >= 2
        ci = pc & self.chooser.mask
        c = chooser[ci]
        prediction = gshare_pred if c >= 2 else bimodal_pred

        correct = prediction == taken
        if correct and taken:
            correct = self._btb_lookup(pc, target)
        if not correct:
            self.mispredictions += 1

        # Update chooser toward whichever component was right (only when
        # they disagree, per the standard tournament scheme).
        if bimodal_pred != gshare_pred:
            if gshare_pred == taken:
                if c < 3:
                    chooser[ci] = c + 1
            elif c > 0:
                chooser[ci] = c - 1
        if taken:
            if b < 3:
                bimodal[bi] = b + 1
            if g < 3:
                gshare[gi] = g + 1
            self.history = ((self.history << 1) | 1) & self.history_mask
            self._btb_install(pc, target)
        else:
            if b > 0:
                bimodal[bi] = b - 1
            if g > 0:
                gshare[gi] = g - 1
            self.history = (self.history << 1) & self.history_mask
        return correct

    def predict_indirect(self, pc: int, target: int) -> bool:
        """Run an indirect jump (``jr``) through the BTB only."""
        self.branches += 1
        correct = self._btb_lookup(pc, target)
        if not correct:
            self.mispredictions += 1
        self._btb_install(pc, target)
        return correct

    def _btb_lookup(self, pc: int, target: int) -> bool:
        i = pc & self.btb_mask
        if self.btb[i] != pc or self.btb_targets[i] != target:
            self.btb_misses += 1
            return False
        return True

    def _btb_install(self, pc: int, target: int) -> None:
        i = pc & self.btb_mask
        self.btb[i] = pc
        self.btb_targets[i] = target

    def misprediction_rate(self) -> float:
        """Mispredictions per dynamic branch."""
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches

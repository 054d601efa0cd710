"""Branch direction/target prediction.

Figure 8 specifies a 16Kbit gshare predictor with 8 bits of global
history: 8192 two-bit saturating counters indexed by
``(pc >> 2) XOR (history << shift)``.  Indirect-jump targets are
predicted by a last-target table, and returns by a per-task return
address stack.
"""

#: Figure 8: 16Kbit of 2-bit counters.
GSHARE_COUNTERS = 8192
GSHARE_HISTORY_BITS = 8


class GsharePredictor:
    """16Kbit gshare with 8 bits of global history."""

    def __init__(self, counters=GSHARE_COUNTERS, history_bits=GSHARE_HISTORY_BITS):
        self.counters = [2] * counters  # initialized weakly taken
        self.index_mask = counters - 1
        self.history_mask = (1 << history_bits) - 1
        # Spread the short history across the index.
        self.history_shift = max(0, counters.bit_length() - 1 - history_bits)
        self.history = 0

    def _index(self, pc):
        return ((pc >> 2) ^ (self.history << self.history_shift)) & self.index_mask

    def predict(self, pc):
        """Predict the direction of the branch at ``pc``."""
        return self.counters[self._index(pc)] >= 2

    def update(self, pc, taken):
        """Train with the resolved direction and shift the history."""
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            if counter < 3:
                self.counters[index] = counter + 1
        else:
            if counter > 0:
                self.counters[index] = counter - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self.history_mask

    def predict_and_update(self, pc, taken):
        """Predict then immediately train; returns the prediction.

        The trace-driven frontend resolves branches from the committed
        trace, so prediction and training happen at fetch.  One body
        (the :meth:`predict` then :meth:`update` pair, inlined) because
        the timing kernel calls it on every conditional branch.
        """
        counters = self.counters
        history = self.history
        index = ((pc >> 2) ^ (history << self.history_shift)) & self.index_mask
        counter = counters[index]
        if taken:
            if counter < 3:
                counters[index] = counter + 1
            self.history = ((history << 1) | 1) & self.history_mask
        else:
            if counter > 0:
                counters[index] = counter - 1
            self.history = (history << 1) & self.history_mask
        return counter >= 2


class IndirectTargetPredictor:
    """Last-target prediction for indirect jumps (BTB-style)."""

    def __init__(self):
        self._last_target = {}

    def predict(self, pc):
        """The last observed target of the jump at ``pc``, or None."""
        return self._last_target.get(pc)

    def update(self, pc, target):
        """Record the resolved target."""
        self._last_target[pc] = target

    def predict_and_update(self, pc, target):
        """Predict, train, and return whether the prediction was right."""
        prediction = self._last_target.get(pc)
        self._last_target[pc] = target
        return prediction == target


class ReturnAddressStack:
    """A bounded return address stack (one per task)."""

    def __init__(self, depth=16):
        self.depth = depth
        self._stack = []

    def push(self, return_pc):
        """Push the return address of a call."""
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_pc)

    def pop(self):
        """Pop a predicted return address, or None when empty."""
        if self._stack:
            return self._stack.pop()
        return None

    def clear(self):
        """Empty the stack (e.g. after a task squash)."""
        del self._stack[:]

    def copy_from(self, other):
        """Adopt another stack's contents (spawned tasks inherit the
        spawner's call context, like the rest of its rename state)."""
        self._stack = list(other._stack)

    def __len__(self):
        return len(self._stack)

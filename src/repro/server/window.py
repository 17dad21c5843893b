"""Windowed collection: epoch-tagged aggregators with a rolling merge.

The paper's protocols aggregate one static population; a telemetry service
instead collects *forever*, and wants queries like "the heavy hitters of the
last 24 hours".  :class:`WindowedAggregator` opens that scenario on top of
the merge algebra of :mod:`repro.protocol`:

* every report batch is tagged with an integer **epoch** (an hour, a day —
  the caller's clock discretization; the default epoch is 0, which recovers
  plain unwindowed collection);
* each epoch owns one exact-integer :class:`~repro.protocol.wire.ServerAggregator`;
* a query over the last ``w`` epochs is answered by merging those epoch
  aggregators (commutative, associative, bit-exact) and finalizing the
  merged copy — the per-epoch states are never mutated by queries;
* with a retention ``window`` configured, epochs that fall out of the window
  are dropped as newer epochs arrive, so server memory stays
  ``window * state_size`` scalars regardless of how long the service runs.

Because merging is bit-exact, a windowed server that ingested epochs
``e-w+1 .. e`` answers exactly what a fresh single-shot server fed only
those epochs' reports would answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.protocol.wire import (
    SNAPSHOT_VERSION,
    PublicParams,
    ReportBatch,
    ServerAggregator,
    child_state,
    json_safe,
    load_child_state,
    merge_aggregators,
    snapshot_params,
)

__all__ = ["WindowedAggregator", "WINDOW_SNAPSHOT_FORMAT"]

#: identifying tag of a windowed snapshot payload; its version follows the
#: aggregator snapshot's (2: flat ``{"counts": …}`` epoch states; 1 restores)
WINDOW_SNAPSHOT_FORMAT = "repro-windowed-snapshot"


class WindowedAggregator:
    """A rolling collection of per-epoch aggregators for one protocol.

    Parameters
    ----------
    params:
        Public parameters of any registered wire protocol.
    window:
        Retention in epochs.  ``None`` (default) retains every epoch —
        unbounded collection; ``w >= 1`` keeps only the ``w`` newest epoch
        tags and rejects reports for epochs that have already been dropped.
    """

    def __init__(self, params: PublicParams,
                 window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        self.params = params
        self.window = window
        self._epochs: Dict[int, ServerAggregator] = {}

    # ----- ingestion ----------------------------------------------------------------

    def absorb_batch(self, batch: ReportBatch, epoch: int = 0) -> None:
        """Fold one batch into its epoch's aggregator (creating it on demand).

        Atomic without a backup: an aggregator validates every column
        before its one integer add, so a rejected batch (``ValueError``)
        leaves every epoch unchanged.
        """
        epoch = int(epoch)
        aggregator = self._epochs.get(epoch)
        if aggregator is None:
            if self.window is not None and self._epochs and \
                    epoch <= max(self._epochs) - self.window:
                raise ValueError(
                    f"epoch {epoch} is outside the retention window "
                    f"(newest epoch {max(self._epochs)}, window {self.window})")
            aggregator = self.params.make_aggregator().absorb_batch(batch)
            self._epochs[epoch] = aggregator
            self._prune()
        else:
            aggregator.absorb_batch(batch)

    def _prune(self) -> None:
        if self.window is None:
            return
        cutoff = max(self._epochs) - self.window
        for epoch in [e for e in self._epochs if e <= cutoff]:
            del self._epochs[epoch]

    # ----- inspection ---------------------------------------------------------------

    @property
    def epochs(self) -> List[int]:
        """Retained epoch tags, oldest first."""
        return sorted(self._epochs)

    @property
    def num_reports(self) -> int:
        """Total reports across every retained epoch."""
        return sum(agg.num_reports for agg in self._epochs.values())

    @property
    def state_size(self) -> int:
        """Total scalars retained across every epoch aggregator."""
        return sum(agg.state_size for agg in self._epochs.values())

    # ----- windowed queries ---------------------------------------------------------

    def set_window(self, window: Optional[int]) -> None:
        """Change the retention window in place (pruning immediately).

        Lets an operator tighten retention when restoring from a snapshot
        taken under a wider (or unbounded) window.
        """
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        self.window = window
        if self._epochs:
            self._prune()

    def select_epochs(self, window: Optional[int] = None,
                      min_epoch: Optional[int] = None) -> List[int]:
        """The epoch tags a query over the last ``window`` epochs covers.

        Windows are *value*-based, matching retention: the selected epochs
        are those ``> newest - window``.  With dense epoch tags that is the
        newest ``window`` tags; with sparse tags it correctly excludes
        epochs older than the window even when few tags exist.

        ``min_epoch`` is the *absolute* form of the same cutoff: it selects
        the epochs ``> min_epoch`` regardless of what this aggregator's
        newest epoch is.  A cluster router uses it to make windowed queries
        exact across shards — ``window`` is relative to each shard's own
        newest epoch, so the router computes the global newest once and
        passes every shard the same absolute cutoff.  The two selectors are
        mutually exclusive.
        """
        if window is not None and min_epoch is not None:
            raise ValueError("window and min_epoch are mutually exclusive")
        if window is not None and window < 1:
            raise ValueError("query window must be >= 1")
        epochs = sorted(self._epochs)
        if not epochs or (window is None and min_epoch is None):
            return epochs
        cutoff = epochs[-1] - window if min_epoch is None else int(min_epoch)
        return [epoch for epoch in epochs if epoch > cutoff]

    def merged(self, window: Optional[int] = None,
               min_epoch: Optional[int] = None) -> ServerAggregator:
        """Bit-exact merge of the last ``window`` epochs (default: all retained).

        Returns a *new* aggregator when more than one epoch participates (the
        merge algebra is pure); with a single epoch the live aggregator is
        returned directly, so callers must treat the result as read-only.
        An empty window merges to a fresh, empty aggregator.
        """
        selected = self.select_epochs(window, min_epoch)
        if not selected:
            return self.params.make_aggregator()
        return merge_aggregators([self._epochs[e] for e in selected])

    def finalize(self, window: Optional[int] = None,
                 min_epoch: Optional[int] = None):
        """Finalize the merged last-``window``-epochs aggregate into an estimator."""
        return self.merged(window, min_epoch).finalize()

    # ----- durable snapshots --------------------------------------------------------

    def capture(self) -> Dict[str, object]:
        """Checkpoint of every retained epoch, its state the epochs' live
        ``counts`` at their width (int32 unless a state was promoted), not
        copies (:func:`~repro.protocol.wire.child_state`): pack it
        (``pack_state``, a kind-2 frame) before the next absorb, as the
        server's ``snapshot`` and ``handoff`` handlers do on the event
        loop."""
        return {"format": WINDOW_SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "params": self.params.to_dict(),
                "window": self.window,
                "epochs": [{"epoch": int(epoch),
                            **child_state(self._epochs[epoch])}
                           for epoch in sorted(self._epochs)]}

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe form of :meth:`capture` (arrays become int lists)."""
        return json_safe(self.capture())

    def merge_snapshot(self, data: Dict[str, object]) -> int:
        """Fold another windowed snapshot into this one, epoch by epoch.

        The wholesale-state half of a shard drain: the drained shard's
        :meth:`snapshot` payload is merged into a survivor with the same
        commutative integer-sum merge queries use, so the union aggregate
        is bit-identical to one server that ingested both shards' reports.
        Epochs already outside this aggregator's retention window are
        skipped — exactly what a single server would have pruned.  Every
        epoch is loaded and checked before any is merged, so a rejected
        payload leaves this aggregator unchanged.  Returns the number of
        reports folded in.
        """
        params = snapshot_params(data, WINDOW_SNAPSHOT_FORMAT, "a windowed")
        if params != self.params:
            raise ValueError("cannot merge a snapshot taken under different "
                             "public parameters")
        loaded = [(int(entry["epoch"]),
                   load_child_state(self.params, entry))
                  for entry in data["epochs"]]
        absorbed = 0
        for epoch, incoming in loaded:
            existing = self._epochs.get(epoch)
            if existing is None:
                if self.window is not None and self._epochs and \
                        epoch <= max(self._epochs) - self.window:
                    continue
                self._epochs[epoch] = incoming
            else:
                self._epochs[epoch] = merge_aggregators([existing, incoming])
            absorbed += incoming.num_reports
        if self._epochs:
            self._prune()
        return absorbed

    @staticmethod
    def from_snapshot(data: Dict[str, object]) -> "WindowedAggregator":
        """Rebuild a windowed collection from :meth:`snapshot` output."""
        params = snapshot_params(data, WINDOW_SNAPSHOT_FORMAT, "a windowed")
        window = data.get("window")
        windowed = WindowedAggregator(
            params, int(window) if window is not None else None)
        for entry in data["epochs"]:
            epoch = int(entry["epoch"])
            windowed._epochs[epoch] = load_child_state(params, entry)
        return windowed

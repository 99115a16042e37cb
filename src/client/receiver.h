// Client-side receiver for the lossy broadcast channel.
//
// Consumes one Transmission per broadcast cycle, reassembles the per-(kind,
// stream) payloads from the frames that survived the channel, and maintains
// the client's local picture of the cycle:
//   - data pages: the latest ObjectVersion per object, with the cycle it
//     arrived in (DataUsable);
//   - full mode: a local F-Matrix whose column j holds the stamps received
//     for object j, with the cycle column j was last received in
//     (ControlUsable);
//   - snapshot+delta mode: the index segment names the control mode, and the
//     control block (delta or refresh) is fed to the client's
//     DeltaMatrixTracker — a lost control segment simply is not observed,
//     which leaves the tracker stale and (on the next delta) desynced, the
//     tracker's designed loss-recovery path.
//
// Resynchronization rule: a read may only validate against control info and
// data received in the EXACT cycle being read. Stale columns could carry
// lower stamps than the current matrix and accept a read the server-side
// matrix rejects, so the caller must treat a missing column/page as a missed
// cycle and stall until the next cycle (BroadcastSim::PerformBroadcastRead).
// Loss therefore only ever adds stalls and aborts — never false acceptance.

#ifndef BCC_CLIENT_RECEIVER_H_
#define BCC_CLIENT_RECEIVER_H_

#include <vector>

#include "channel/frame.h"
#include "channel/lossy_channel.h"
#include "client/delta_tracker.h"
#include "matrix/f_matrix.h"
#include "obs/trace.h"

namespace bcc {

/// Per-client frame reassembly and resynchronization state.
class ChannelReceiver {
 public:
  /// `tracker` selects the control mode: nullptr receives full-mode column
  /// streams into a local matrix; non-null feeds delta/refresh blocks to the
  /// tracker (owned by the caller, must outlive the receiver).
  ChannelReceiver(uint32_t num_objects, FrameCodec codec, DeltaMatrixTracker* tracker);

  /// Ingests everything the client received from cycle `cycle`'s broadcast.
  /// `now` is the simulation time of the broadcast, used only to timestamp
  /// trace events (harmless to omit when tracing is off).
  void IngestCycle(Cycle cycle, const Transmission& tx, SimTime now = 0);

  /// True when object `ob`'s control info is usable for a read in `cycle`:
  /// full mode only — column ob was received in exactly that cycle. (Delta
  /// mode gates on DeltaMatrixTracker::Unusable instead.)
  bool ControlUsable(ObjectId ob, Cycle cycle) const { return col_cycle_[ob] == cycle; }

  /// True when object `ob`'s data page from cycle `cycle` was received.
  bool DataUsable(ObjectId ob, Cycle cycle) const { return data_cycle_[ob] == cycle; }

  /// Full-mode reconstructed matrix (column j meaningful only while
  /// ControlUsable(j, current cycle)).
  const FMatrix& matrix() const { return matrix_; }

  /// Last received data page per object (entry ob meaningful only while
  /// DataUsable(ob, current cycle)).
  const std::vector<ObjectVersion>& values() const { return values_; }

  /// The caller reports protocol-level consequences of loss.
  void RecordStall() { ++stats_.stalls; }
  void RecordLossAttributedAbort() { ++stats_.loss_attributed_aborts; }

  const ChannelStats& stats() const { return stats_; }

  /// Optional trace sink (not owned; nullptr disables). Emits kFrameRx per
  /// ingested cycle and, in full mode, kDesync/kResync on control-continuity
  /// transitions. Delta-mode sync transitions are emitted by the tracker.
  void set_trace_ring(TraceRing* ring) { trace_ = ring; }

 private:
  /// Decodes a delta-mode control block and feeds it to the tracker; false
  /// when the payload fails wire validation (treated as a lost segment).
  bool ObserveControl(Cycle cycle, bool refresh, const Payload& payload);

  /// The reassembler of a stream this receiver consumes, or nullptr for any
  /// other (kind, stream id): data and column streams per object, and one
  /// index, delta and refresh stream.
  StreamReassembler* Stream(FrameKind kind, uint32_t stream_id);
  /// Stream(kind, stream_id) when that stream is complete, else nullptr.
  const StreamReassembler* Complete(FrameKind kind, uint32_t stream_id);

  uint32_t n_;
  FrameCodec codec_;
  DeltaMatrixTracker* tracker_;  // null in full mode

  // Per-cycle reassembly state, cleared (not freed) each cycle: objects'
  // data streams, then their column streams, then index, delta, refresh.
  std::vector<StreamReassembler> streams_;
  Payload payload_;  // the stream being decoded

  FMatrix matrix_;                   // full mode
  std::vector<Cycle> col_cycle_;     // cycle each column was last received in
  std::vector<ObjectVersion> values_;
  std::vector<Cycle> data_cycle_;    // cycle each data page was last received in

  bool prev_control_ok_ = true;  // full mode: was last cycle's control complete?
  bool ever_synced_ = false;     // delta mode: has the tracker ever synced?
  ChannelStats stats_;
  TraceRing* trace_ = nullptr;
};

/// Why a read cannot be validated in the cycle it is attempted in.
enum class ReadStall : uint8_t { kNone, kChannelLoss, kDeltaDesync };

/// Section 3.1's missed-cycle rule, shared by every client engine (the
/// in-process ClientTxn core and the UDP client): a read of `ob` in `cycle`
/// validates only against control info and data received in that cycle. A
/// stale column could carry lower stamps than the current matrix and falsely
/// accept the read, so a lost page or column (or a delta tracker that cannot
/// vouch for this cycle) stalls the read to the next cycle; older control
/// info is never substituted. `tracker` is null outside delta mode,
/// `receiver` outside channel mode.
ReadStall CheckReadStall(const DeltaMatrixTracker* tracker, const ChannelReceiver* receiver,
                         ObjectId ob, Cycle cycle);

/// The cause an aborted attempt is charged with. An attempt that stalled on
/// channel loss spanned extra cycles because of the loss, so the loss
/// outranks the protocol's cause; a delta-desync stall likewise. Otherwise
/// the cause is the exact check that fired.
AbortInfo AttributeAbort(AbortInfo cause, bool loss_stalled, bool desync_stalled);

}  // namespace bcc

#endif  // BCC_CLIENT_RECEIVER_H_

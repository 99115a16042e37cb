// One client's transaction program (Sections 3.1 and 4): submit after a
// think time, read each object off the air at the end of its next slot
// (validating the read condition against that cycle's control info, or
// stalling a cycle under the missed-cycle rule), restart on abort, and ship
// update transactions over the uplink. The DES (BroadcastSim) and the
// threaded engine (ConcurrentSim) both drive this one core; see DESIGN.md,
// "Client transaction core".
//
// The core runs one event at a time and names the client's next event
// (step and virtual time). It owns no clock and no queue: the DES puts the
// next event on its queue, ConcurrentSim keeps running events while they
// fall in the current phase. Uplink validation is the engine's (it owns the
// server and its serialization) and is passed in per step.

#ifndef BCC_SIM_CLIENT_TXN_H_
#define BCC_SIM_CLIENT_TXN_H_

#include <memory>
#include <optional>
#include <vector>

#include "client/cache.h"
#include "client/delta_tracker.h"
#include "client/read_txn.h"
#include "client/receiver.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "server/validator.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/workload.h"

namespace bcc {

/// First TxnId used for client read-only transactions in recorded oracle
/// histories (server transactions count up from 1); client update
/// transactions use ids from 2 * kClientTxnIdBase.
inline constexpr TxnId kClientTxnIdBase = 1u << 20;

/// The client program's steps.
enum class ClientStep : uint8_t {
  kSubmit,       ///< draw the next transaction
  kBeginRead,    ///< after a think time: serve from the cache or wait for the slot
  kRead,         ///< the slot has been broadcast: stall or validate
  kUplink,       ///< update txn: ship reads + writes to the validator
  kUplinkDone,   ///< accepted; the client learns it one uplink delay later
  kUplinkAbort,  ///< rejected; the abort fires one uplink delay later
};

/// A client's pending event.
struct ClientEvent {
  ClientStep step = ClientStep::kSubmit;
  SimTime time = 0;
};

/// One client: workload, read protocol, optional quasi-cache, delta tracker
/// and channel receiver, the current attempt's state, and the client's
/// tallies. Single-threaded; ConcurrentSim gives each client its own thread.
class ClientTxn {
 public:
  /// Builds the client of `config` (which, like `schedule`, must outlive the
  /// core) on workload stream `rng`.
  ClientTxn(const SimConfig& config, const BroadcastSchedule& schedule, Rng rng,
            std::optional<CycleStampCodec> codec);

  ClientTxn(const ClientTxn&) = delete;
  ClientTxn& operator=(const ClientTxn&) = delete;

  /// Draws the first think time; the first submission fires at that time.
  const ClientEvent& Start();

  /// The event this client waits on.
  const ClientEvent& next() const { return next_; }

  /// Runs next(), which fires during the cycle on air in `snap`, and returns
  /// the client's new next event. For kUplink, `validate(request, reject)`
  /// assigns request.id, validates the update and returns whether it was
  /// accepted, filling `reject` with the cause when not. A returned kSubmit
  /// means a transaction just completed; censored(), restarts(), reads() and
  /// values() describe it until that kSubmit runs.
  template <typename ValidateUplink>
  const ClientEvent& Step(const CycleSnapshot& snap, ValidateUplink&& validate) {
    if (next_.step != ClientStep::kUplink) return StepLocal(snap);
    ClientUpdateRequest request;
    request.reads = protocol_.reads();
    request.writes = write_set_;
    AbortInfo reject;
    const bool accepted = validate(request, reject);
    return UplinkDecided(snap.cycle, accepted, reject);
  }

  /// This client's trace ring (not owned; null = tracing off), shared with
  /// its receiver and tracker. Single-writer: set before the run starts.
  void set_trace_ring(TraceRing* ring);

  // The current (or just-completed) transaction.
  SimTime submit_time() const { return submit_time_; }
  uint32_t restarts() const { return restarts_; }
  bool is_update() const { return is_update_; }
  bool censored() const { return censored_; }
  const std::vector<ReadRecord>& reads() const { return protocol_.reads(); }
  const std::vector<ObjectVersion>& values() const { return protocol_.values(); }

  const ClientTally& tally() const { return tally_; }
  ClientTally& tally() { return tally_; }

  QuasiCache* cache() const { return cache_.get(); }
  DeltaMatrixTracker* tracker() const { return tracker_.get(); }
  ChannelReceiver* receiver() const { return receiver_.get(); }

 private:
  const ClientEvent& StepLocal(const CycleSnapshot& snap);
  const ClientEvent& Submit();
  const ClientEvent& BeginRead(const CycleSnapshot& snap);
  const ClientEvent& Read(const CycleSnapshot& snap);
  const ClientEvent& ReadSucceeded(Cycle cycle);
  const ClientEvent& UplinkDecided(Cycle cycle, bool accepted, const AbortInfo& reject);
  /// Counts and traces the abort, then restarts the attempt or censors the
  /// transaction at max_restarts_per_txn.
  const ClientEvent& Abort(Cycle cycle, const AbortInfo& info);
  const ClientEvent& Complete(Cycle cycle, bool censored);
  const ClientEvent& Schedule(ClientStep step, SimTime at);
  void Trace(TraceEventType type, Cycle cycle, ObjectId ob, uint64_t value,
             const AbortInfo& abort = {});

  const SimConfig& config_;
  const BroadcastSchedule& schedule_;
  SimTime slot_bits_;

  ClientWorkload workload_;
  ReadOnlyTxnProtocol protocol_;
  std::unique_ptr<QuasiCache> cache_;
  /// Delta-broadcast reconstruction state (delta_broadcast mode only); the
  /// protocol's control override points into it.
  std::unique_ptr<DeltaMatrixTracker> tracker_;
  /// Channel-mode frame reassembly (channel_broadcast only). Feeds the
  /// tracker in delta mode; its matrix/values back the protocol's control
  /// and value overrides otherwise.
  std::unique_ptr<ChannelReceiver> receiver_;
  TraceRing* trace_ = nullptr;

  ClientEvent next_;
  std::vector<ObjectId> read_set_;
  std::vector<ObjectId> write_set_;  // update txns: kept across restarts
  size_t read_idx_ = 0;
  SimTime submit_time_ = 0;
  uint32_t restarts_ = 0;
  bool is_update_ = false;
  bool censored_ = false;
  /// Stalls of the current attempt (they decide its abort attribution).
  bool loss_stalled_ = false;
  bool desync_stalled_ = false;
  /// Rejection cause captured at validation, consumed by kUplinkAbort one
  /// uplink delay later.
  AbortInfo uplink_reject_;

  ClientTally tally_;
};

}  // namespace bcc

#endif  // BCC_SIM_CLIENT_TXN_H_

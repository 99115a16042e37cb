#include "server/broadcast_server.h"

#include <cassert>

namespace bcc {

SimTime NextReadEnd(const BroadcastSchedule& schedule, SimTime slot_bits, SimTime cycle_start,
                    ObjectId ob, SimTime at) {
  assert(at >= cycle_start);
  const SimTime offset = at - cycle_start;
  // Smallest slot index s with completion cycle_start + (s+1)*slot_bits >= at.
  const size_t min_slot = offset <= slot_bits ? 0 : static_cast<size_t>((offset - 1) / slot_bits);
  int64_t slot = schedule.NextSlotOf(ob, min_slot);
  if (slot < 0) {
    // No appearance of `ob` remains this cycle: its first slot of the next.
    cycle_start += static_cast<SimTime>(schedule.num_slots()) * slot_bits;
    slot = schedule.SlotsOf(ob).front();
  }
  return cycle_start + static_cast<SimTime>(slot + 1) * slot_bits;
}

BroadcastServer::BroadcastServer(uint32_t num_objects, BroadcastGeometry geometry)
    : num_objects_(num_objects),
      geometry_(geometry),
      schedule_(BroadcastSchedule::Flat(num_objects)) {}

void BroadcastServer::SetSchedule(BroadcastSchedule schedule) {
  assert(!started_ && "schedule must be installed before the first cycle");
  assert(schedule.num_objects() == num_objects_);
  schedule_ = std::move(schedule);
}

CycleSnapshot BroadcastServer::BuildSnapshot(Cycle cycle, SimTime start_time,
                                             const ServerTxnManager& manager) const {
  CycleSnapshot snap;
  snap.cycle = cycle;
  snap.start_time = start_time;
  snap.values = manager.store().committed();
  snap.f_matrix = manager.SnapshotControl();
  if (manager.mc_vector().num_objects() > 0) snap.mc_vector = manager.mc_vector();
  if (partition_.has_value() && manager.f_matrix().num_objects() > 0) {
    snap.group_matrix.emplace(*partition_, manager.f_matrix());
  }
  return snap;
}

void BroadcastServer::BeginCycle(Cycle cycle, SimTime start_time,
                                 const ServerTxnManager& manager) {
  if (!started_) {
    first_start_ = start_time;
    started_ = true;
  }
  snapshot_ = BuildSnapshot(cycle, start_time, manager);
}

void BroadcastServer::EnableDeltaBroadcast(const CycleStampCodec& codec,
                                           uint64_t refresh_period) {
  assert(!started_ && "delta mode must be enabled before the first cycle");
  delta_.emplace(num_objects_, codec, refresh_period);
}

void BroadcastServer::AttachDeltaControl() {
  assert(started_ && delta_.has_value());
  assert(!snapshot_.delta.has_value() && "one AttachDeltaControl per BeginCycle");
  snapshot_.delta = delta_->BuildControl(snapshot_.f_matrix, snapshot_.cycle);
}

SimTime BroadcastServer::ObjectAvailableTime(ObjectId ob) const {
  assert(started_ && ob < num_objects_);
  const uint32_t slot = schedule_.SlotsOf(ob).front();
  return snapshot_.start_time + static_cast<SimTime>(slot + 1) * geometry_.slot_bits;
}

std::optional<SimTime> BroadcastServer::NextSlotEnd(ObjectId ob, SimTime at_or_after) const {
  assert(started_ && ob < num_objects_);
  const SimTime end =
      NextReadEnd(schedule_, geometry_.slot_bits, snapshot_.start_time, ob, at_or_after);
  // Every slot of this cycle ends by CycleEndTime; a next-cycle slot after it.
  if (end > CycleEndTime()) return std::nullopt;
  return end;
}

SimTime BroadcastServer::CycleEndTime() const {
  assert(started_);
  return snapshot_.start_time + CycleLengthBits();
}

Cycle BroadcastServer::CycleAt(SimTime t) const {
  assert(started_ && t >= first_start_);
  const SimTime len = CycleLengthBits();
  if (len == 0) return snapshot_.cycle;
  return (t - first_start_) / len + 1;
}

}  // namespace bcc

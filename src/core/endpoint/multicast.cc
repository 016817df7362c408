#include "core/endpoint/multicast.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "core/deadline.h"

namespace dfi {
namespace {

uint32_t RoundUp8(uint32_t v) { return (v + 7u) & ~7u; }

/// One blocked poll round on a recv CQ: a non-blocking poll, then a park
/// with the deadline's virtual backoff. Returns true when a completion was
/// polled; false means the caller should run its failure / gap-recovery
/// checks.
bool PollRound(rdma::CompletionQueue* cq, VirtualClock* clock,
               DeadlineWait* wait, rdma::Completion* c) {
  const uint64_t seen = cq->version();
  if (cq->TryPoll(c, clock)) return true;
  wait->Block(*cq, seen);
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// MulticastState
// ---------------------------------------------------------------------------

MulticastState::MulticastState(rdma::RdmaEnv* env,
                               const FlowOptions& options,
                               uint32_t tuple_size, uint32_t num_sources,
                               std::vector<net::NodeId> target_nodes,
                               const AbortLatch* flow_abort)
    : env_(env),
      options_(options),
      num_sources_(num_sources),
      target_nodes_(std::move(target_nodes)),
      flow_abort_(flow_abort) {
  const net::SimConfig& cfg = env_->config();
  pool_slots_ = options_.segments_per_ring;

  // Segments must fit one datagram.
  const uint32_t mtu_payload =
      (cfg.ud_mtu_bytes - sizeof(SegmentFooter)) & ~7u;
  if (options_.optimization == FlowOptimization::kLatency) {
    payload_capacity_ = RoundUp8(tuple_size);
  } else {
    payload_capacity_ =
        std::min(RoundUp8(options_.segment_size), mtu_payload);
    payload_capacity_ = std::max(payload_capacity_, RoundUp8(tuple_size));
  }
  DFI_CHECK_LE(payload_capacity_ + sizeof(SegmentFooter), cfg.ud_mtu_bytes)
      << "tuple too large for one multicast datagram";
  if (cfg.multicast_loss_probability > 0) {
    DFI_CHECK(ordered()) << "loss injection requires a globally ordered "
                            "replicate flow (gap detection + retransmit)";
  }

  group_ = env_->fabric().network_switch().CreateGroup();
  target_qps_.resize(num_targets());
  recv_pools_.resize(num_targets());
  credit_mrs_.resize(num_targets());
  consume_time_ = std::make_unique<std::atomic<SimTime>[]>(num_targets());
  ends_seen_ = std::make_unique<std::atomic<uint32_t>[]>(num_targets());
  for (uint32_t t = 0; t < num_targets(); ++t) {
    rdma::RdmaContext* ctx = env_->context(target_nodes_[t]);
    rdma::CompletionQueue* recv_cq = ctx->CreateCq();
    target_qps_[t] = ctx->CreateUdQp(ctx->CreateCq(), recv_cq);
    DFI_CHECK_OK(target_qps_[t]->AttachMulticast(group_));
    recv_pools_[t] =
        ctx->AllocateRegion(static_cast<size_t>(slot_bytes()) * pool_slots_);
    for (uint32_t i = 0; i < pool_slots_; ++i) {
      target_qps_[t]->PostRecv(recv_pools_[t]->addr() +
                                   static_cast<size_t>(i) * slot_bytes(),
                               slot_bytes(), i);
    }
    credit_mrs_[t] = ctx->AllocateRegion(64);
    consume_time_[t].store(0, std::memory_order_relaxed);
    ends_seen_[t].store(0, std::memory_order_relaxed);
  }
  if (ordered()) {
    sequencer_mr_ = env_->context(sequencer_node())->AllocateRegion(64);
    histories_.resize(num_sources_);
  }
}

uint8_t* MulticastState::recv_slot(uint32_t target, uint32_t slot) {
  return recv_pools_[target]->addr() +
         static_cast<size_t>(slot) * slot_bytes();
}

StatusOr<uint64_t> MulticastState::AcquirePosition(rdma::RcQueuePair* seq_qp,
                                                   VirtualClock* clock) {
  if (!ordered()) {
    return unordered_positions_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Tuple sequencer: RDMA fetch-and-add on a global counter (paper 5.4).
  // Fails with kPeerFailed when the sequencer node crashed or is
  // partitioned away — the flow cannot make ordered progress then.
  return seq_qp->FetchAdd(sequencer_ref(), 1, clock);
}

uint64_t MulticastState::LoadConsumed(uint32_t target) const {
  return std::atomic_ref<uint64_t>(
             *reinterpret_cast<uint64_t*>(credit_mrs_[target]->addr()))
      .load(std::memory_order_acquire);
}

rdma::RemoteRef MulticastState::credit_ref(uint32_t target) const {
  return credit_mrs_[target]->RefAt(0);
}

void MulticastState::ReportConsumed(uint32_t target, SimTime now) {
  consume_time_[target].store(now, std::memory_order_release);
  std::atomic_ref<uint64_t>(
      *reinterpret_cast<uint64_t*>(credit_mrs_[target]->addr()))
      .fetch_add(1, std::memory_order_acq_rel);
  credit_sync_.Notify();
}

Status MulticastState::WaitForCredit(
    uint64_t position, std::vector<rdma::RcQueuePair*>& credit_qps,
    VirtualClock* clock) {
  const uint64_t slots = pool_slots_;
  auto min_consumed = [&] {
    uint64_t m = UINT64_MAX;
    for (uint32_t t = 0; t < num_targets(); ++t) {
      m = std::min(m, LoadConsumed(t));
    }
    return m;
  };
  // Periodic credit refresh: one 8-byte RDMA read per target each time the
  // cached window is half used (paper: "remote credit is read once the
  // local credit counter reaches a certain threshold").
  if (slots >= 2 && position % (slots / 2) == (slots / 2) - 1) {
    alignas(8) uint8_t scratch[8];
    for (uint32_t t = 0; t < num_targets(); ++t) {
      rdma::ReadDesc read;
      read.local = scratch;
      read.remote = credit_ref(t);
      read.length = sizeof(uint64_t);
      auto timing = credit_qps[t]->PostRead(read, clock);
      DFI_RETURN_IF_ERROR(timing.status());
    }
  }
  if (position < min_consumed() + slots) return Status::OK();

  // Blocked: wait until every target caught up. A dead or aborted target
  // never reports consumption, so the wait is deadline-bounded and checks
  // teardown / fault-plan state every slice instead of hanging forever.
  DeadlineWait wait(options_, clock);
  const net::FaultPlan& plan = fault_plan();
  for (;;) {
    const uint64_t seen = credit_sync_.version();
    if (position < min_consumed() + slots) break;
    if (flow_abort_ != nullptr && flow_abort_->tripped()) {
      wait.Commit();
      return flow_abort_->status();
    }
    if (plan.active()) {
      const SimTime now = wait.ProvisionalNow();
      for (uint32_t t = 0; t < num_targets(); ++t) {
        if (!plan.NodeAlive(target_nodes_[t], now)) {
          wait.Commit();
          return Status::PeerFailed(
              "replicate target " + std::to_string(t) + " on node " +
              std::to_string(target_nodes_[t]) +
              " failed; credit window cannot advance");
        }
      }
    }
    if (!wait.Tick()) {
      wait.Commit();
      return Status::DeadlineExceeded(
          "credit wait deadline at position " + std::to_string(position));
    }
    wait.Block(credit_sync_, seen);
  }

  // Success: charge virtual time from the limiting target's consume
  // timestamp plus one discovering read (fault-free timing unchanged).
  SimTime limit = 0;
  for (uint32_t t = 0; t < num_targets(); ++t) {
    limit = std::max(limit,
                     consume_time_[t].load(std::memory_order_acquire));
  }
  clock->AdvanceTo(limit);
  alignas(8) uint8_t scratch[8];
  rdma::ReadDesc read;
  read.local = scratch;
  read.remote = credit_ref(0);
  read.length = sizeof(uint64_t);
  auto timing = credit_qps[0]->PostRead(read, clock);
  DFI_RETURN_IF_ERROR(timing.status());
  clock->AdvanceTo(timing->arrival);
  return Status::OK();
}

void MulticastState::RecordHistory(uint32_t source, uint64_t seq,
                                   const uint8_t* data, uint32_t len) {
  auto& segments = histories_[source];
  segments.emplace(seq, std::vector<uint8_t>(data, data + len));
  while (segments.size() > kHistoryDepth) segments.erase(segments.begin());
}

bool MulticastState::LookupHistory(uint64_t seq,
                                   std::vector<uint8_t>* out) const {
  for (const auto& segments : histories_) {
    auto it = segments.find(seq);
    if (it != segments.end()) {
      *out = it->second;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// MulticastSendEndpoint
// ---------------------------------------------------------------------------

MulticastSendEndpoint::MulticastSendEndpoint(MulticastState* mcast,
                                             uint32_t source_index,
                                             rdma::RdmaContext* ctx,
                                             const net::SimConfig* config,
                                             AbortLatch* flow_abort,
                                             VirtualClock* clock)
    : FanoutEndpoint(ctx, mcast->options(), mcast->payload_capacity(),
                     config, flow_abort, clock),
      mcast_(mcast),
      source_index_(source_index),
      flow_abort_(flow_abort) {
  rdma::CompletionQueue* cq = ctx->CreateCq();
  ud_qp_ = ctx->CreateUdQp(cq, ctx->CreateCq());
  if (mcast_->ordered()) {
    seq_qp_ = ctx->CreateRcQp(mcast_->sequencer_node(), cq);
  }
  for (uint32_t t = 0; t < mcast_->num_targets(); ++t) {
    credit_qps_.push_back(ctx->CreateRcQp(mcast_->target_node(t), cq));
  }
}

Status MulticastSendEndpoint::Transmit(uint32_t fill, bool end) {
  DFI_ASSIGN_OR_RETURN(const uint64_t position,
                       mcast_->AcquirePosition(seq_qp_, clock_));
  DFI_RETURN_IF_ERROR(
      mcast_->WaitForCredit(position, credit_qps_, clock_));

  uint8_t* slot = staging_payload();
  auto* footer = reinterpret_cast<SegmentFooter*>(
      slot + staging().payload_capacity());
  footer->sequence = position;
  footer->fill_bytes = fill;
  footer->source_index = static_cast<uint16_t>(source_index_);
  footer->reserved = 0;
  footer->arrival_sim_time = 0;  // per-target arrival comes from the CQE
  footer->flags = static_cast<uint8_t>(kFlagConsumable |
                                       (end ? kFlagEndOfFlow : 0));
  if (mcast_->ordered()) {
    mcast_->RecordHistory(source_index_, position, slot,
                          mcast_->slot_bytes());
  }
  clock_->Advance(config_->segment_seal_ns);
  auto timing = ud_qp_->PostSendMulticast(mcast_->group(), slot,
                                          mcast_->slot_bytes(), position,
                                          /*signaled=*/false, clock_);
  DFI_RETURN_IF_ERROR(timing.status());
  ++send_count_;
  return Status::OK();
}

void MulticastSendEndpoint::Abort(const Status& cause) {
  MarkClosed();
  // Switch replication has no per-pair channel: tear the flow down.
  if (flow_abort_->Trip(cause)) mcast_->WakeCreditWaiters();
}

// ---------------------------------------------------------------------------
// MulticastSink
// ---------------------------------------------------------------------------

MulticastSink::MulticastSink(MulticastState* mcast, uint32_t target_index,
                             const Schema* schema,
                             const net::SimConfig* config,
                             VirtualClock* clock, std::string label,
                             std::vector<net::NodeId> source_nodes,
                             const AbortLatch* flow_abort)
    : mcast_(mcast),
      target_index_(target_index),
      schema_(schema),
      config_(config),
      clock_(clock),
      label_(std::move(label)),
      source_nodes_(std::move(source_nodes)),
      flow_abort_(flow_abort) {}

const SegmentFooter* MulticastSink::SlotFooter(uint32_t slot) const {
  return reinterpret_cast<const SegmentFooter*>(
      mcast_->recv_slot(target_index_, slot) + mcast_->payload_capacity());
}

void MulticastSink::ReleaseHeld() {
  if (held_slot_ >= 0) {
    mcast_->target_qp(target_index_)
        ->PostRecv(mcast_->recv_slot(target_index_,
                                     static_cast<uint32_t>(held_slot_)),
                   mcast_->slot_bytes(), static_cast<uint32_t>(held_slot_));
    mcast_->ReportConsumed(target_index_, clock_->now());
    held_slot_ = -1;
  }
  if (!held_copy_.empty()) {
    held_copy_.clear();
    mcast_->ReportConsumed(target_index_, clock_->now());
  }
}

bool MulticastSink::CheckFailure(DeadlineWait* wait,
                                 ConsumeResult* out_result) {
  // Flow-level teardown first.
  if (flow_abort_ != nullptr && flow_abort_->tripped()) {
    last_status_ = flow_abort_->status();
    wait->Commit();
    *out_result = ConsumeResult::kError;
    return true;
  }
  // A crashed source never sequences its end-of-flow marker, so the flow
  // can never finish; surface it as kPeerFailed. (Multicast end markers are
  // counted, not per-source, so any dead source fails the flow — membership
  // semantics.)
  const net::FaultPlan& plan = mcast_->fault_plan();
  if (plan.active()) {
    const SimTime now = wait->ProvisionalNow();
    for (uint32_t s = 0; s < source_nodes_.size(); ++s) {
      const net::NodeId src = source_nodes_[s];
      if (!plan.NodeAlive(src, now)) {
        last_status_ = Status::PeerFailed(
            label_ + " source " + std::to_string(s) + " on node " +
            std::to_string(src) + " failed before closing the flow");
        wait->Commit();
        *out_result = ConsumeResult::kError;
        return true;
      }
    }
  }
  if (!wait->Tick()) {
    last_status_ =
        Status::DeadlineExceeded(label_ + " consume deadline elapsed");
    wait->Commit();
    *out_result = ConsumeResult::kError;
    return true;
  }
  return false;
}

ConsumeResult MulticastSink::ConsumeSegment(SegmentView* out) {
  return mcast_->ordered() ? ConsumeOrdered(out) : ConsumeUnordered(out);
}

ConsumeResult MulticastSink::ConsumeUnordered(SegmentView* out) {
  ReleaseHeld();
  rdma::CompletionQueue* cq = mcast_->target_qp(target_index_)->recv_cq();
  auto& ends = mcast_->ends_seen(target_index_);
  DeadlineWait wait(mcast_->options(), clock_);
  for (;;) {
    if (ends.load(std::memory_order_acquire) == mcast_->num_sources()) {
      return ConsumeResult::kFlowEnd;
    }
    rdma::Completion c;
    if (!PollRound(cq, clock_, &wait, &c)) {
      ConsumeResult failure;
      if (CheckFailure(&wait, &failure)) return failure;
      continue;
    }
    const uint32_t slot = static_cast<uint32_t>(c.wr_id);
    const SegmentFooter* footer = SlotFooter(slot);
    if (footer->end_of_flow()) {
      ends.fetch_add(1, std::memory_order_acq_rel);
      if (footer->fill_bytes == 0) {
        // Pure end marker: recycle.
        mcast_->target_qp(target_index_)
            ->PostRecv(mcast_->recv_slot(target_index_, slot),
                       mcast_->slot_bytes(), slot);
        mcast_->ReportConsumed(target_index_, clock_->now());
        continue;
      }
      // End marker carrying the source's final partial segment: deliver.
    }
    clock_->Advance(config_->consume_segment_fixed_ns);
    held_slot_ = static_cast<int>(slot);
    *out = SegmentView{mcast_->recv_slot(target_index_, slot),
                       footer->fill_bytes,
                       footer->sequence,
                       footer->source_index,
                       footer->end_of_flow(),
                       c.time};
    return ConsumeResult::kOk;
  }
}

ConsumeResult MulticastSink::ConsumeOrdered(SegmentView* out) {
  ReleaseHeld();
  rdma::CompletionQueue* cq = mcast_->target_qp(target_index_)->recv_cq();
  auto& ends = mcast_->ends_seen(target_index_);
  DeadlineWait wait(mcast_->options(), clock_);
  for (;;) {
    if (ends.load(std::memory_order_acquire) == mcast_->num_sources()) {
      return ConsumeResult::kFlowEnd;
    }
    // Serve in order from the next list (paper Figure 6).
    Sequencer::Entry entry;
    if (seq_.PopReady(&entry)) {
      const uint8_t* base;
      if (entry.slot != UINT32_MAX) {
        base = mcast_->recv_slot(target_index_, entry.slot);
      } else {
        held_copy_ = std::move(entry.copy);
        base = held_copy_.data();
      }
      const auto* footer = reinterpret_cast<const SegmentFooter*>(
          base + mcast_->payload_capacity());
      if (footer->end_of_flow()) {
        // End markers are sequenced like data.
        ends.fetch_add(1, std::memory_order_acq_rel);
        if (footer->fill_bytes == 0) {
          // Pure marker: recycle.
          if (entry.slot != UINT32_MAX) {
            held_slot_ = static_cast<int>(entry.slot);
          }
          ReleaseHeld();
          continue;
        }
        // Marker carrying the final partial segment: fall through and
        // deliver the payload.
      }
      clock_->Advance(config_->consume_segment_fixed_ns);
      clock_->AdvanceTo(entry.arrival);
      if (entry.slot != UINT32_MAX) {
        held_slot_ = static_cast<int>(entry.slot);
      }
      *out = SegmentView{base,
                         footer->fill_bytes,
                         footer->sequence,
                         footer->source_index,
                         footer->end_of_flow(),
                         entry.arrival};
      return ConsumeResult::kOk;
    }

    // Pull arrivals into the next list.
    rdma::Completion c;
    if (PollRound(cq, clock_, &wait, &c)) {
      const uint32_t slot = static_cast<uint32_t>(c.wr_id);
      const SegmentFooter* footer = SlotFooter(slot);
      const uint64_t seq = footer->sequence;
      if (!seq_.Fresh(seq)) {
        // Duplicate (e.g. a retransmission raced the original): recycle the
        // slot without reporting consumption — the sequence was already
        // credited once.
        mcast_->target_qp(target_index_)
            ->PostRecv(mcast_->recv_slot(target_index_, slot),
                       mcast_->slot_bytes(), slot);
        continue;
      }
      seq_.Offer(seq, Sequencer::Entry{slot, {}, c.time});
      continue;
    }

    // Poll timed out: first surface teardown / dead peers / the deadline,
    // then consider gap recovery (paper section 5.4). With loss injection
    // disabled nothing can be lost — the head sequence is merely still in
    // flight (e.g. its sender was descheduled), so keep polling instead of
    // issuing spurious recoveries.
    ConsumeResult failure;
    if (CheckFailure(&wait, &failure)) return failure;
    if (config_->multicast_loss_probability <= 0 &&
        !mcast_->fault_plan().HasLossBursts()) {
      continue;
    }
    if (mcast_->options().app_handles_gaps) {
      // Evidence of loss is either a later segment already queued, or the
      // missing sequence recorded in a sender's history (covers tail loss,
      // where nothing later will ever arrive).
      std::vector<uint8_t> probe;
      if (!seq_.HasPending() &&
          !mcast_->LookupHistory(seq_.expected(), &probe)) {
        continue;  // nothing proves a gap yet
      }
      clock_->Advance(mcast_->options().gap_timeout_ns);
      out->payload = nullptr;
      out->bytes = 0;
      out->sequence = seq_.expected();  // the missing sequence number
      out->end_of_flow = false;
      out->arrival = clock_->now();
      return ConsumeResult::kGap;
    }
    // Transparent recovery: request a retransmission. In-process this pulls
    // straight from the source's retransmit history, charging the unicast
    // round-trip it would cost on the wire.
    std::vector<uint8_t> copy;
    if (mcast_->LookupHistory(seq_.expected(), &copy)) {
      const net::SimConfig& cfg = *config_;
      clock_->Advance(mcast_->options().gap_timeout_ns);
      clock_->Advance(2 * cfg.propagation_ns + cfg.ud_send_overhead_ns +
                      static_cast<SimTime>(mcast_->slot_bytes() /
                                           cfg.LinkBytesPerNs()));
      seq_.Offer(seq_.expected(),
                 Sequencer::Entry{UINT32_MAX, std::move(copy),
                                  clock_->now()});
    }
    // Otherwise the segment is still in flight (or not yet sent); keep
    // waiting.
  }
}

ConsumeResult MulticastSink::Consume(TupleView* out) {
  const uint32_t tuple_size =
      static_cast<uint32_t>(schema_->tuple_size());
  for (;;) {
    if (current_.payload != nullptr &&
        tuple_offset_ + tuple_size <= current_.bytes) {
      *out = TupleView(current_.payload + tuple_offset_, schema_);
      tuple_offset_ += tuple_size;
      clock_->Advance(config_->tuple_consume_fixed_ns);
      return ConsumeResult::kOk;
    }
    current_ = SegmentView{};
    tuple_offset_ = 0;
    SegmentView view;
    const ConsumeResult r = ConsumeSegment(&view);
    if (r != ConsumeResult::kOk) return r;
    current_ = view;
  }
}

void MulticastSink::SkipGap() {
  DFI_CHECK(mcast_->ordered() && mcast_->options().app_handles_gaps);
  seq_.Skip();
  mcast_->ReportConsumed(target_index_, clock_->now());
}

void MulticastSink::SupplyGap(const void* data, uint32_t bytes) {
  DFI_CHECK(mcast_->ordered() && mcast_->options().app_handles_gaps);
  DFI_CHECK_LE(bytes, mcast_->payload_capacity());
  std::vector<uint8_t> copy(mcast_->slot_bytes(), 0);
  std::memcpy(copy.data(), data, bytes);
  auto* footer = reinterpret_cast<SegmentFooter*>(
      copy.data() + mcast_->payload_capacity());
  footer->sequence = seq_.expected();
  footer->fill_bytes = bytes;
  footer->flags = kFlagConsumable;
  footer->arrival_sim_time = clock_->now();
  seq_.Offer(seq_.expected(),
             Sequencer::Entry{UINT32_MAX, std::move(copy), clock_->now()});
}

}  // namespace dfi

#include "netsim/virtual_comm.hpp"

#include <ucontext.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DSHUF_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define DSHUF_ASAN_FIBERS 1
#endif

#ifdef DSHUF_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#include "netsim/flow_engine.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace dshuf::netsim {

namespace detail {

namespace {

/// Same key the threaded injector uses for its per-source attempt
/// counters (file-local there, so restated): fault determinism requires
/// the two backends to count attempts identically.
std::uint64_t link_key(int dest, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)) << 32) |
         static_cast<std::uint32_t>(tag);
}

bool matches_msg(int want_source, int want_tag, const comm::Message& m) {
  return (want_source == comm::kAnySource || want_source == m.source) &&
         (want_tag == comm::kAnyTag || want_tag == m.tag);
}

}  // namespace

class VirtualWorldState;
struct VirtualRequestState;

/// One virtual rank: a ucontext fiber plus the thread-local state (log
/// context, trace track) that must travel with the logical rank rather
/// than the OS thread all fibers share. The stack lives as long as the
/// world; every run() re-enters it from the top.
struct Fiber {
  ucontext_t ctx{};
  std::unique_ptr<char[]> stack;
  std::size_t stack_size = 0;
  int rank = -1;
  bool done = false;
  bool runnable = false;  // already queued in run_queue_
  const char* blocked_reason = nullptr;
  std::exception_ptr error;
  LogContextState log_ctx{};
  int trace_track = 0;
#ifdef DSHUF_ASAN_FIBERS
  void* fake_stack = nullptr;
#endif
};

/// Fiber-world request state. Single-threaded by construction, so no
/// locks: completion flips `done` and wakes the owning fiber.
struct VirtualRequestState final : comm::detail::RequestState {
  VirtualWorldState* w = nullptr;
  int owner = -1;  // rank whose mailbox the receive is parked in
  int source = comm::kAnySource;
  int tag = comm::kAnyTag;
  bool done = false;
  bool cancelled_flag = false;
  comm::Message msg;

  bool test() override { return done; }
  void wait() override;
  bool wait_for(std::chrono::microseconds timeout) override;
  bool cancelled() override { return cancelled_flag; }
  const comm::Message& message() override {
    DSHUF_CHECK(done, "message() before completion");
    return msg;
  }
};

struct VMailbox {
  std::deque<comm::Message> arrived;
  // Unmatched receives in post order (deposit matches oldest-first,
  // mirroring the threaded mailbox's pending queue).
  std::vector<std::shared_ptr<VirtualRequestState>> parked;
};

class VirtualWorldState {
 public:
  VirtualWorldState(int num_ranks, VirtualWorldOptions opts)
      : size_(num_ranks), opts_(opts) {
    DSHUF_CHECK_GT(num_ranks, 0, "world needs at least one rank");
    DSHUF_CHECK_GE(opts_.fiber_stack_bytes, std::size_t{64} * 1024,
                   "fiber stacks below 64 KiB overflow under logging");
    if (opts_.topology) {
      topo_ = opts_.topology->resolved_for(num_ranks);
      DSHUF_CHECK_GT(topo_->intra_bw_bps, 0.0, "intra bandwidth must be > 0");
      DSHUF_CHECK_GT(topo_->inter_bw_bps, 0.0, "inter bandwidth must be > 0");
    } else {
      DSHUF_CHECK_GT(opts_.caps.nic_out_bps, 0.0, "NIC egress must be > 0");
      DSHUF_CHECK_GT(opts_.caps.nic_in_bps, 0.0, "NIC ingress must be > 0");
    }
    DSHUF_CHECK_GE(opts_.caps.fabric_bps, 0.0, "fabric capacity < 0");
    DSHUF_CHECK_GE(opts_.caps.per_message_latency_s, 0.0, "latency < 0");
    DSHUF_CHECK_GE(opts_.event_quantum_us, std::uint64_t{1},
                   "event quantum must be at least 1 us");
    latency_us_ = static_cast<std::uint64_t>(
        std::llround(opts_.caps.per_message_latency_s * 1e6));

    // Link table: [0,M) per-rank egress, [M,2M) per-rank ingress, then —
    // under a topology — one uplink and one downlink per group, then an
    // optional shared fabric pool. Matches simulate_flows' flat layout so
    // the analytic cross-checks price the same constraints.
    const std::size_t m = static_cast<std::size_t>(num_ranks);
    const double out_bps = topo_ ? topo_->intra_bw_bps : opts_.caps.nic_out_bps;
    const double in_bps = topo_ ? topo_->intra_bw_bps : opts_.caps.nic_in_bps;
    link_caps_.assign(m, out_bps);
    link_caps_.insert(link_caps_.end(), m, in_bps);
    if (topo_) {
      const std::size_t g = static_cast<std::size_t>(topo_->groups);
      link_caps_.insert(link_caps_.end(), 2 * g, topo_->inter_bw_bps);
    }
    if (opts_.caps.fabric_bps > 0) {
      fabric_link_ = static_cast<int>(link_caps_.size());
      link_caps_.push_back(opts_.caps.fabric_bps);
    }

    mailboxes_.resize(m);
    pools_.resize(m);
    attempts_.resize(m);
    slots_.init(num_ranks);

    // One stack per rank for the world's lifetime, left uninitialised: a
    // fiber touches only the pages it grows into, so zero-filling 256 KiB
    // per rank would just make every page resident.
    fibers_.resize(m);
    for (int r = 0; r < num_ranks; ++r) {
      Fiber& f = fibers_[static_cast<std::size_t>(r)];
      f.rank = r;
      f.stack_size = opts_.fiber_stack_bytes;
      f.stack = std::make_unique_for_overwrite<char[]>(f.stack_size);
    }
  }

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] std::uint64_t now_us() const { return now_us_; }
  [[nodiscard]] bool has_fault_plan() const { return fault_plan_.has_value(); }
  [[nodiscard]] comm::FaultStats fault_stats() const { return stats_; }
  [[nodiscard]] VirtualWorld::RunStats last_run_stats() const {
    return last_run_stats_;
  }
  [[nodiscard]] comm::BufferPool& pool(int rank) {
    return pools_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] comm::detail::CollectiveSlots& slots() { return slots_; }

  void set_fault_plan(const comm::FaultPlan& plan) {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    fault_plan_ = plan;
  }
  void clear_fault_plan() {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    fault_plan_.reset();
  }

  void run(const std::function<void(comm::Communicator&)>& body);

  // ---- fiber-side primitives (called from rank fibers) ----

  void send_from(int src, int dest, comm::Message msg);
  comm::Request post_irecv(int rank, int source, int tag);
  std::optional<comm::Message> poll_on(int rank, int source, int tag);
  bool cancel_on(int rank, comm::Request& request);
  void barrier_on_fiber();
  void fence_on_fiber();
  void backoff_on_fiber(std::chrono::microseconds pause);

  /// Suspend the current fiber until someone makes it runnable again.
  /// Every caller loops on its predicate — wakeups may be spurious (stale
  /// timers, barrier releases meant for a past generation).
  void block(const char* reason);
  /// block(), with a timer event guaranteeing a wake at `deadline`.
  void block_until(std::uint64_t deadline_us, const char* reason);

  void fiber_entry();

 private:
  enum class EventKind : std::uint8_t { kInject, kTimer };

  /// Heap event: a message entering the network (kInject — becomes a flow
  /// or a direct deposit) or a fiber's requested wake (kTimer).
  struct Event {
    std::uint64_t due_us = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak — determinism at equal times
    EventKind kind = EventKind::kTimer;
    int src = -1;
    int dest = -1;
    bool fault_counted = false;
    int fiber = -1;
    comm::Message msg;
    bool operator<(const Event& o) const {
      // std::push_heap keeps the LARGEST on top; invert for earliest.
      return due_us != o.due_us ? due_us > o.due_us : seq > o.seq;
    }
  };

  struct FlowMsg {
    int dest = -1;
    bool fault_counted = false;
    comm::Message msg;
  };

  void make_runnable(int fi) {
    Fiber& f = fibers_[static_cast<std::size_t>(fi)];
    if (f.done || f.runnable) return;
    f.runnable = true;
    run_queue_.push_back(fi);
  }

  void resume(int fi);
  void yield_to_scheduler();
  void run_runnable();
  void abort_world();

  void schedule_inject(int src, int dest, comm::Message msg,
                       std::uint64_t extra_delay_us, bool fault_counted);
  void schedule_timer(int fiber, std::uint64_t due_us);
  void path_for(int src, int dest, std::vector<int>& path) const;
  void start_flow(int src, int dest, bool fault_counted, comm::Message msg);
  void deliver(int dest, comm::Message msg, bool fault_counted);
  void deposit(int dest, comm::Message msg);
  bool step_time();
  void check_drained();

  int size_;
  VirtualWorldOptions opts_;
  std::optional<shuffle::Topology> topo_;
  std::vector<double> link_caps_;
  int fabric_link_ = -1;
  std::uint64_t latency_us_ = 0;

  std::vector<VMailbox> mailboxes_;
  std::vector<comm::BufferPool> pools_;
  comm::detail::CollectiveSlots slots_;

  // Fault oracle state — same shape as FaultInjector's (per-source maps
  // keyed by (dest, tag)), reset at each run() so schedules replay.
  std::optional<comm::FaultPlan> fault_plan_;
  std::vector<std::map<std::uint64_t, std::uint64_t>> attempts_;
  comm::FaultStats stats_;

  // Scheduler.
  std::vector<Fiber> fibers_;
  std::deque<int> run_queue_;
  int current_ = -1;  // fiber index executing right now; -1 = scheduler
  ucontext_t sched_ctx_{};
  bool running_ = false;
  bool aborted_ = false;
  const std::function<void(comm::Communicator&)>* body_ = nullptr;
  LogContextState sched_log_ctx_{};
  int sched_track_ = 0;
#ifdef DSHUF_ASAN_FIBERS
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
#endif

  // Barrier (gen/count, waiters released in arrival order).
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
  std::vector<int> barrier_waiters_;
  std::vector<int> fence_waiters_;

  // Virtual time and the network.
  std::uint64_t now_us_ = 0;
  std::uint64_t run_start_us_ = 0;
  obs::VirtualClock vclock_;
  std::unique_ptr<FlowEngine> engine_;
  std::uint64_t engine_origin_us_ = 0;
  std::vector<Event> events_;
  std::uint64_t event_seq_ = 0;
  std::size_t pending_inject_ = 0;
  std::vector<FlowMsg> flow_msgs_;
  std::uint64_t flows_admitted_ = 0;
  std::vector<int> path_scratch_;
  std::vector<std::pair<FlowEngine::FlowId, double>> finished_scratch_;

  std::uint64_t switches_ = 0;
  VirtualWorld::RunStats last_run_stats_;
};

namespace {

// makecontext's entry takes no arguments; the running world parks itself
// here for the trampoline. One world runs per OS thread at a time (run()
// is not reentrant), so a plain thread_local suffices.
thread_local VirtualWorldState* g_running_world = nullptr;

extern "C" void dshuf_fiber_trampoline() { g_running_world->fiber_entry(); }

}  // namespace

void VirtualRequestState::wait() {
  while (!done) {
    DSHUF_CHECK(!cancelled_flag, "wait() on a cancelled request");
    w->block("request wait");
  }
}

bool VirtualRequestState::wait_for(std::chrono::microseconds timeout) {
  const std::uint64_t deadline =
      w->now_us() +
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, timeout.count()));
  while (!done) {
    DSHUF_CHECK(!cancelled_flag, "wait_for() on a cancelled request");
    if (w->now_us() >= deadline) return false;
    w->block_until(deadline, "request wait_for");
  }
  return true;
}

/// The fiber-rank endpoint over VirtualWorldState. Internal to this TU:
/// the only way to get one is through VirtualWorld::run.
class VirtualCommunicator final : public comm::Communicator {
 public:
  VirtualCommunicator(VirtualWorldState* w, int rank)
      : Communicator(rank), w_(w) {}

  [[nodiscard]] int size() const override { return w_->size(); }

  comm::Request isend(int dest, int tag,
                      std::vector<std::byte> payload) override {
    send(dest, tag, std::move(payload));
    // Buffered send: locally complete, like the threaded backend (even a
    // dropped message "completes").
    auto state = std::make_shared<VirtualRequestState>();
    state->w = w_;
    state->done = true;
    return make_request(std::move(state));
  }

  void send(int dest, int tag, std::vector<std::byte> payload) override {
    DSHUF_CHECK(dest >= 0 && dest < size(), "send destination out of range");
    comm::Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload = std::move(payload);
    DSHUF_COUNTER("comm.isend").add();
    DSHUF_COUNTER("comm.bytes_sent").add(msg.payload.size());
    w_->send_from(rank_, dest, std::move(msg));
  }

  comm::Request irecv(int source, int tag) override {
    DSHUF_CHECK(source == comm::kAnySource || (source >= 0 && source < size()),
                "irecv source out of range");
    return w_->post_irecv(rank_, source, tag);
  }

  comm::Message recv(int source, int tag) override {
    comm::Request r = irecv(source, tag);
    r.wait();
    // Move the message out instead of copying it through message(): the
    // receiver gets the sender's buffer itself, so a pooled frame buffer
    // keeps its capacity as it migrates between rank pools.
    return std::move(static_cast<VirtualRequestState&>(*state_of(r)).msg);
  }

  std::optional<comm::Message> poll(int source, int tag) override {
    return w_->poll_on(rank_, source, tag);
  }

  bool cancel(comm::Request& request) override {
    DSHUF_CHECK(request.valid(), "cancel() on an empty request");
    return w_->cancel_on(rank_, request);
  }

  [[nodiscard]] bool fault_injection_enabled() const override {
    return w_->has_fault_plan();
  }

  void fence_faults() override { w_->fence_on_fiber(); }

  void barrier() override {
    DSHUF_COUNTER("comm.barrier").add();
    w_->barrier_on_fiber();
  }

  [[nodiscard]] std::uint64_t now_us() override { return w_->now_us(); }

  void backoff(std::chrono::microseconds pause) override {
    w_->backoff_on_fiber(pause);
  }

  [[nodiscard]] comm::BufferPool& pool() override { return w_->pool(rank_); }

  // make_request / request_state are protected in the base; the world's
  // mailbox code (not itself a Communicator) goes through these.
  static comm::Request wrap(std::shared_ptr<comm::detail::RequestState> s) {
    return make_request(std::move(s));
  }
  [[nodiscard]] static const std::shared_ptr<comm::detail::RequestState>&
  state_of(const comm::Request& r) {
    return request_state(r);
  }

 protected:
  [[nodiscard]] comm::detail::CollectiveSlots& collective_slots() override {
    return w_->slots();
  }

 private:
  VirtualWorldState* w_;
};

// ---- fiber switching ----

void VirtualWorldState::resume(int fi) {
  Fiber& f = fibers_[static_cast<std::size_t>(fi)];
  current_ = fi;
  ++switches_;
  // The logical rank's thread-locals ride the fiber, not the OS thread.
  restore_log_context(f.log_ctx);
  obs::Tracer::set_thread_track(f.trace_track);
#ifdef DSHUF_ASAN_FIBERS
  void* sched_fake = nullptr;
  __sanitizer_start_switch_fiber(&sched_fake, f.stack.get(), f.stack_size);
#endif
  swapcontext(&sched_ctx_, &f.ctx);
#ifdef DSHUF_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake, nullptr, nullptr);
#endif
  f.log_ctx = log_context_state();
  f.trace_track = obs::Tracer::thread_track();
  restore_log_context(sched_log_ctx_);
  obs::Tracer::set_thread_track(sched_track_);
  current_ = -1;
}

void VirtualWorldState::yield_to_scheduler() {
  Fiber& f = fibers_[static_cast<std::size_t>(current_)];
#ifdef DSHUF_ASAN_FIBERS
  // A finished fiber's fake stack dies with it (nullptr handle).
  __sanitizer_start_switch_fiber(f.done ? nullptr : &f.fake_stack,
                                 sched_stack_bottom_, sched_stack_size_);
#endif
  swapcontext(&f.ctx, &sched_ctx_);
#ifdef DSHUF_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void VirtualWorldState::fiber_entry() {
  Fiber& f = fibers_[static_cast<std::size_t>(current_)];
#ifdef DSHUF_ASAN_FIBERS
  // First entry into any fiber: complete the switch and learn the
  // scheduler stack's bounds for the way back.
  __sanitizer_finish_switch_fiber(nullptr, &sched_stack_bottom_,
                                  &sched_stack_size_);
#endif
  try {
    obs::Tracer::set_thread_track(f.rank);
    if (obs::Tracer::instance().enabled()) {
      obs::Tracer::set_thread_name("rank " + std::to_string(f.rank));
    }
    VirtualCommunicator c(this, f.rank);
    (*body_)(c);
  } catch (...) {
    f.error = std::current_exception();
    abort_world();
  }
  f.done = true;
  yield_to_scheduler();
  DSHUF_CHECK(false, "resumed a finished fiber");
}

void VirtualWorldState::run_runnable() {
  while (!run_queue_.empty()) {
    const int fi = run_queue_.front();
    run_queue_.pop_front();
    Fiber& f = fibers_[static_cast<std::size_t>(fi)];
    f.runnable = false;
    if (f.done) continue;
    resume(fi);
  }
}

void VirtualWorldState::abort_world() {
  aborted_ = true;
  // Wake every blocked fiber (rank order); their blocking primitives
  // observe the flag and unwind.
  for (int fi = 0; fi < size_; ++fi) {
    if (fi != current_) make_runnable(fi);
  }
}

void VirtualWorldState::block(const char* reason) {
  // Never park once the world is aborting: nothing would wake the fiber,
  // and its stack would be re-entered by the next run with frames alive.
  DSHUF_CHECK(!aborted_, "world aborted before " << reason);
  Fiber& f = fibers_[static_cast<std::size_t>(current_)];
  f.blocked_reason = reason;
  yield_to_scheduler();
  f.blocked_reason = nullptr;
  DSHUF_CHECK(!aborted_, "world aborted while in " << reason);
}

void VirtualWorldState::block_until(std::uint64_t deadline_us,
                                    const char* reason) {
  schedule_timer(current_, deadline_us);
  block(reason);
}

// ---- data plane ----

void VirtualWorldState::send_from(int src, int dest, comm::Message msg) {
  // Loopback never crosses the wire: deposit synchronously (same as the
  // threaded backend), fault-exempt.
  if (src == dest) {
    if (fault_plan_) {
      ++stats_.submitted;
      ++stats_.delivered;
      DSHUF_COUNTER("comm.fault.submitted").add();
      DSHUF_COUNTER("comm.fault.delivered").add();
    }
    deposit(dest, std::move(msg));
    return;
  }

  std::uint64_t extra_delay_us = 0;
  bool counted = false;
  if (fault_plan_) {
    counted = true;
    const std::uint64_t attempt =
        attempts_[static_cast<std::size_t>(src)][link_key(dest, msg.tag)]++;
    const comm::FaultDecision d =
        fault_plan_->decide(src, dest, msg.tag, attempt);
    ++stats_.submitted;
    DSHUF_COUNTER("comm.fault.submitted").add();

    // Stall window measured from run start in VIRTUAL time.
    std::uint64_t stall_extra = 0;
    const std::uint32_t stall = fault_plan_->stall_us(src);
    if (stall > 0) {
      const std::uint64_t stall_end = run_start_us_ + stall;
      if (now_us_ < stall_end) stall_extra = stall_end - now_us_;
    }

    if (d.drop) {
      ++stats_.dropped;
      DSHUF_COUNTER("comm.fault.dropped").add();
      return;
    }
    if (d.duplicate) {
      ++stats_.duplicated;
      DSHUF_COUNTER("comm.fault.duplicated").add();
      // Extra copy enters the network immediately (no delay/stall) —
      // unlike the threaded injector we count its `delivered` when it
      // lands, not here, so `delivered` means "deposited" uniformly;
      // the totals agree once the world is quiescent.
      schedule_inject(src, dest, msg, 0, counted);
    }
    extra_delay_us = static_cast<std::uint64_t>(d.delay_us) + stall_extra;
    if (d.delay_us > 0) {
      ++stats_.delayed;
      DSHUF_COUNTER("comm.fault.delayed").add();
    }
    if (stall_extra > 0) {
      ++stats_.stalled;
      DSHUF_COUNTER("comm.fault.stalled").add();
    }
  }
  schedule_inject(src, dest, std::move(msg), extra_delay_us, counted);
}

void VirtualWorldState::schedule_inject(int src, int dest, comm::Message msg,
                                        std::uint64_t extra_delay_us,
                                        bool fault_counted) {
  Event ev;
  ev.due_us = now_us_ + extra_delay_us + latency_us_;
  ev.seq = event_seq_++;
  ev.kind = EventKind::kInject;
  ev.src = src;
  ev.dest = dest;
  ev.fault_counted = fault_counted;
  ev.msg = std::move(msg);
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end());
  ++pending_inject_;
}

void VirtualWorldState::schedule_timer(int fiber, std::uint64_t due_us) {
  Event ev;
  ev.due_us = std::max(due_us, now_us_);
  ev.seq = event_seq_++;
  ev.kind = EventKind::kTimer;
  ev.fiber = fiber;
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end());
}

void VirtualWorldState::path_for(int src, int dest,
                                 std::vector<int>& path) const {
  path.clear();
  path.push_back(src);           // egress NIC
  path.push_back(size_ + dest);  // ingress NIC
  if (topo_) {
    const int gs = topo_->group_of(src);
    const int gd = topo_->group_of(dest);
    if (gs != gd) {
      path.push_back(2 * size_ + gs);                  // source group uplink
      path.push_back(2 * size_ + topo_->groups + gd);  // dest group downlink
      if (topo_->leader_aggregation) {
        // Store-and-forward staging through both group leaders: the frame
        // also crosses the leaders' NICs (in+out), unless an endpoint IS
        // the leader (then its own NIC is already on the path).
        const int ls = topo_->leader_of(gs);
        const int ld = topo_->leader_of(gd);
        if (ls != src) {
          path.push_back(size_ + ls);
          path.push_back(ls);
        }
        if (ld != dest) {
          path.push_back(size_ + ld);
          path.push_back(ld);
        }
      }
      if (fabric_link_ >= 0) path.push_back(fabric_link_);
    }
    // Intra-group traffic rides node-local links; no fabric.
  } else if (fabric_link_ >= 0) {
    path.push_back(fabric_link_);
  }
}

void VirtualWorldState::start_flow(int src, int dest, bool fault_counted,
                                   comm::Message msg) {
  path_for(src, dest, path_scratch_);
  const double bytes = static_cast<double>(msg.payload.size());
  const FlowEngine::FlowId id = engine_->add_flow(bytes, path_scratch_);
  if (flow_msgs_.size() <= id) flow_msgs_.resize(id + 1);
  FlowMsg& fm = flow_msgs_[id];
  fm.dest = dest;
  fm.fault_counted = fault_counted;
  fm.msg = std::move(msg);
  ++flows_admitted_;
}

void VirtualWorldState::deliver(int dest, comm::Message msg,
                                bool fault_counted) {
  if (fault_counted) {
    ++stats_.delivered;
    DSHUF_COUNTER("comm.fault.delivered").add();
  }
  deposit(dest, std::move(msg));
}

void VirtualWorldState::deposit(int dest, comm::Message msg) {
  VMailbox& mb = mailboxes_[static_cast<std::size_t>(dest)];
  for (auto it = mb.parked.begin(); it != mb.parked.end(); ++it) {
    VirtualRequestState& st = **it;
    if (matches_msg(st.source, st.tag, msg) &&
        (st.source == comm::kAnySource || st.source == msg.source)) {
      std::shared_ptr<VirtualRequestState> state = std::move(*it);
      mb.parked.erase(it);
      state->msg = std::move(msg);
      state->done = true;
      make_runnable(state->owner);
      return;
    }
  }
  mb.arrived.push_back(std::move(msg));
}

comm::Request VirtualWorldState::post_irecv(int rank, int source, int tag) {
  auto state = std::make_shared<VirtualRequestState>();
  state->w = this;
  state->owner = rank;
  state->source = source;
  state->tag = tag;
  VMailbox& mb = mailboxes_[static_cast<std::size_t>(rank)];
  for (auto it = mb.arrived.begin(); it != mb.arrived.end(); ++it) {
    if (matches_msg(source, tag, *it)) {
      state->msg = std::move(*it);
      mb.arrived.erase(it);
      state->done = true;
      return VirtualCommunicator::wrap(std::move(state));
    }
  }
  mb.parked.push_back(state);
  return VirtualCommunicator::wrap(std::move(state));
}

std::optional<comm::Message> VirtualWorldState::poll_on(int rank, int source,
                                                        int tag) {
  VMailbox& mb = mailboxes_[static_cast<std::size_t>(rank)];
  for (auto it = mb.arrived.begin(); it != mb.arrived.end(); ++it) {
    if (matches_msg(source, tag, *it)) {
      comm::Message m = std::move(*it);
      mb.arrived.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

bool VirtualWorldState::cancel_on(int rank, comm::Request& request) {
  auto* st = dynamic_cast<VirtualRequestState*>(
      VirtualCommunicator::state_of(request).get());
  if (st == nullptr) return false;
  VMailbox& mb = mailboxes_[static_cast<std::size_t>(rank)];
  for (auto it = mb.parked.begin(); it != mb.parked.end(); ++it) {
    if (it->get() == st) {
      mb.parked.erase(it);
      st->cancelled_flag = true;
      return true;
    }
  }
  return false;  // already matched (or a send request) — nothing to cancel
}

// ---- rendezvous primitives ----

void VirtualWorldState::barrier_on_fiber() {
  const std::uint64_t gen = barrier_gen_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_gen_;
    for (int w : barrier_waiters_) make_runnable(w);
    barrier_waiters_.clear();
    return;
  }
  barrier_waiters_.push_back(current_);
  while (barrier_gen_ == gen) block("barrier");
}

void VirtualWorldState::fence_on_fiber() {
  // The virtual data plane has real transit time, so a fence here means
  // full quiescence: no message waiting to enter the network, none in
  // flight. Delayed messages are WAITED OUT in virtual time instead of
  // force-flushed, so stats.flushed stays 0 on this backend.
  while (pending_inject_ > 0 || engine_->active_flows() > 0) {
    fence_waiters_.push_back(current_);
    block("fence");
  }
}

void VirtualWorldState::backoff_on_fiber(std::chrono::microseconds pause) {
  const std::uint64_t deadline =
      now_us_ +
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, pause.count()));
  if (deadline <= now_us_) {
    // Zero-length pause: plain yield (go to the back of the run queue).
    make_runnable(current_);
    yield_to_scheduler();
    DSHUF_CHECK(!aborted_, "world aborted while in backoff");
    return;
  }
  while (now_us_ < deadline) block_until(deadline, "backoff");
}

// ---- the event loop ----

bool VirtualWorldState::step_time() {
  const double tf = engine_->next_finish_s();
  const bool have_flow = std::isfinite(tf);
  std::uint64_t flow_us = 0;
  if (have_flow) {
    flow_us = static_cast<std::uint64_t>(std::ceil(std::max(0.0, tf) * 1e6));
    // Coarse event quantum: deliveries round UP to the next tick, so one
    // advance_to (and, in the engine's lazy mode, one refill) covers the
    // whole tick's completions.
    const std::uint64_t q = opts_.event_quantum_us;
    if (q > 1) flow_us = (flow_us + q - 1) / q * q;
    flow_us += engine_origin_us_;
  }
  const bool have_event = !events_.empty();
  if (!have_flow && !have_event) return false;

  std::uint64_t t;
  if (have_flow && (!have_event || flow_us <= events_.front().due_us)) {
    t = flow_us;
  } else {
    t = events_.front().due_us;
  }
  now_us_ = std::max(now_us_, t);
  vclock_.set_us(now_us_);

  // Advance the network to the (µs-quantised) new now and deliver what
  // finished. When the step was chosen FOR a flow completion, make sure
  // the rounded target doesn't land a hair before the engine's own
  // prediction — that would retire nothing and loop forever.
  double target_s =
      static_cast<double>(now_us_ - engine_origin_us_) * 1e-6;
  if (have_flow && flow_us <= now_us_) target_s = std::max(target_s, tf);
  finished_scratch_.clear();
  engine_->advance_to(target_s, finished_scratch_);
  for (auto& [id, fin_s] : finished_scratch_) {
    (void)fin_s;
    FlowMsg& fm = flow_msgs_[id];
    deliver(fm.dest, std::move(fm.msg), fm.fault_counted);
  }

  // Fire everything due: messages enter the network, timers wake fibers.
  while (!events_.empty() && events_.front().due_us <= now_us_) {
    std::pop_heap(events_.begin(), events_.end());
    Event ev = std::move(events_.back());
    events_.pop_back();
    if (ev.kind == EventKind::kInject) {
      --pending_inject_;
      start_flow(ev.src, ev.dest, ev.fault_counted, std::move(ev.msg));
    } else {
      make_runnable(ev.fiber);
    }
  }
  return true;
}

void VirtualWorldState::check_drained() {
  DSHUF_CHECK(pending_inject_ == 0 && engine_->active_flows() == 0,
              "virtual world finished with traffic still in flight");
  for (int r = 0; r < size_; ++r) {
    VMailbox& mb = mailboxes_[static_cast<std::size_t>(r)];
    DSHUF_CHECK(mb.arrived.empty(),
                "rank " << r << " finished with " << mb.arrived.size()
                        << " unreceived message(s)");
    DSHUF_CHECK(mb.parked.empty(),
                "rank " << r << " finished with " << mb.parked.size()
                        << " unmatched irecv(s)");
  }
}

void VirtualWorldState::run(
    const std::function<void(comm::Communicator&)>& body) {
  DSHUF_CHECK(!running_, "VirtualWorld::run is not reentrant");
  running_ = true;
  aborted_ = false;
  body_ = &body;
  run_start_us_ = now_us_;
  for (auto& per_rank : attempts_) per_rank.clear();

  engine_ = std::make_unique<FlowEngine>(link_caps_);
  engine_->set_lazy_rebalance(opts_.event_quantum_us > 1);
  engine_origin_us_ = now_us_;
  flow_msgs_.clear();
  flows_admitted_ = 0;
  events_.clear();
  event_seq_ = 0;
  pending_inject_ = 0;
  barrier_count_ = 0;
  barrier_waiters_.clear();
  fence_waiters_.clear();
  const std::uint64_t switches_before = switches_;

  // Rank code's spans/histograms must read virtual time for the duration.
  vclock_.set_us(now_us_);
  obs::Clock* prev_clock = obs::set_obs_clock(&vclock_);
  sched_log_ctx_ = log_context_state();
  sched_track_ = obs::Tracer::thread_track();

  run_queue_.clear();
  for (int r = 0; r < size_; ++r) {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    f.done = false;
    f.blocked_reason = nullptr;
    f.error = nullptr;
    f.log_ctx = LogContextState{};
#ifdef DSHUF_ASAN_FIBERS
    // The last run's frames never returned (a fiber ends by switching
    // away), so their redzones are still poisoned.
    f.fake_stack = nullptr;
    ASAN_UNPOISON_MEMORY_REGION(f.stack.get(), f.stack_size);
#endif
    DSHUF_CHECK(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = f.stack_size;
    f.ctx.uc_link = nullptr;  // fibers exit via an explicit final yield
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(dshuf_fiber_trampoline),
                0);
    f.trace_track = r;
    f.runnable = true;
    run_queue_.push_back(r);
  }
  VirtualWorldState* prev_world = g_running_world;
  g_running_world = this;

  std::exception_ptr loop_error;
  try {
    for (;;) {
      run_runnable();
      bool all_done = true;
      for (const Fiber& f : fibers_) {
        if (!f.done) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
      if (!fence_waiters_.empty() && pending_inject_ == 0 &&
          engine_->active_flows() == 0) {
        for (int w : fence_waiters_) make_runnable(w);
        fence_waiters_.clear();
        continue;
      }
      if (!step_time()) {
        std::ostringstream blocked;
        for (const Fiber& f : fibers_) {
          if (f.done) continue;
          blocked << " r" << f.rank << ":"
                  << (f.blocked_reason ? f.blocked_reason : "?");
        }
        DSHUF_CHECK(false, "virtual world deadlock — no runnable fiber, no "
                           "pending event, no active flow; blocked:"
                               << blocked.str());
      }
    }
    // All ranks returned; run any still-ticking traffic to quiescence so
    // leftovers surface in mailboxes (and fail check_drained loudly, the
    // way undrained sends do on the threaded backend).
    while (pending_inject_ > 0 || engine_->active_flows() > 0) {
      DSHUF_CHECK(step_time(), "undelivered traffic cannot make progress");
    }
  } catch (...) {
    loop_error = std::current_exception();
  }
  if (loop_error) {
    // The loop itself failed (deadlock, engine error) with fibers still
    // suspended. Resume each one so it throws out of its blocking
    // primitive and the objects on its stack are destroyed before the
    // stack is reused.
    abort_world();
    run_runnable();
  }

  g_running_world = prev_world;
  obs::set_obs_clock(prev_clock);
  restore_log_context(sched_log_ctx_);
  obs::Tracer::set_thread_track(sched_track_);
  running_ = false;
  body_ = nullptr;
  last_run_stats_ = VirtualWorld::RunStats{
      now_us_ - run_start_us_, switches_ - switches_before, flows_admitted_,
      engine_->refill_work()};

  if (loop_error) std::rethrow_exception(loop_error);
  for (Fiber& f : fibers_) {
    if (f.error) std::rethrow_exception(std::exchange(f.error, nullptr));
  }
  check_drained();
}

}  // namespace detail

VirtualWorld::VirtualWorld(int num_ranks, VirtualWorldOptions opts)
    : state_(std::make_unique<detail::VirtualWorldState>(num_ranks, opts)) {}

VirtualWorld::~VirtualWorld() = default;

int VirtualWorld::size() const { return state_->size(); }

void VirtualWorld::run(const std::function<void(comm::Communicator&)>& body) {
  state_->run(body);
}

void VirtualWorld::set_fault_plan(const comm::FaultPlan& plan) {
  state_->set_fault_plan(plan);
}

void VirtualWorld::clear_fault_plan() { state_->clear_fault_plan(); }

comm::FaultStats VirtualWorld::fault_stats() const {
  return state_->fault_stats();
}

std::uint64_t VirtualWorld::now_us() const { return state_->now_us(); }

VirtualWorld::RunStats VirtualWorld::last_run_stats() const {
  return state_->last_run_stats();
}

}  // namespace dshuf::netsim

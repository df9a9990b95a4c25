#include "comm/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/ranked_mutex.hpp"
#include "util/ring_queue.hpp"

namespace dshuf::comm {

namespace detail {

/// Threaded-world request state: completion signalled across rank threads
/// with a mutex + condvar pair.
struct ThreadedRequestState final : RequestState {
  RankedMutex mu{LockRank::kCommRequest, "comm.request"};
  std::condition_variable_any cv;
  bool done = false;
  bool cancelled_flag = false;
  Message msg;
  // Abort flag shared with the world so waiters wake when a peer throws.
  std::shared_ptr<std::atomic<bool>> aborted;

  void complete(Message m) {
    {
      std::lock_guard<RankedMutex> lk(mu);
      msg = std::move(m);
      done = true;
    }
    cv.notify_all();
  }

  bool test() override {
    std::lock_guard<RankedMutex> lk(mu);
    return done;
  }

  void wait() override {
    std::unique_lock<RankedMutex> lk(mu);
    // Poll with a timeout so an aborted world (peer threw) wakes us even
    // if the notification raced our wait registration.
    while (!done) {
      DSHUF_CHECK(!cancelled_flag, "wait() on a cancelled request");
      DSHUF_CHECK(!(aborted && aborted->load(std::memory_order_seq_cst)),
                  "world aborted while waiting on a request");
      cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  bool wait_for(std::chrono::microseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock<RankedMutex> lk(mu);
    while (!done) {
      DSHUF_CHECK(!cancelled_flag, "wait_for() on a cancelled request");
      DSHUF_CHECK(!(aborted && aborted->load(std::memory_order_seq_cst)),
                  "world aborted while waiting on a request");
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      // Cap each sleep so an abort can never be missed for long.
      const auto slice = std::min<std::chrono::steady_clock::duration>(
          deadline - now, std::chrono::milliseconds(50));
      cv.wait_for(lk, slice);
    }
    return true;
  }

  bool cancelled() override {
    std::lock_guard<RankedMutex> lk(mu);
    return cancelled_flag;
  }

  const Message& message() override {
    std::lock_guard<RankedMutex> lk(mu);
    DSHUF_CHECK(done, "message() before completion");
    return msg;
  }
};

struct PendingRecv {
  int source = kAnySource;
  int tag = kAnyTag;
  std::shared_ptr<ThreadedRequestState> state;
};

// Queues are RingQueues, not deques: libstdc++'s deque churns heap nodes
// under steady push/pop, which would break the zero-allocation exchange
// steady state. `cv` wakes blocking recv() when a message is queued.
struct RankMailbox {
  RankedMutex mu{LockRank::kCommMailbox, "comm.mailbox"};
  std::condition_variable_any cv;
  RingQueue<Message> arrived;
  RingQueue<PendingRecv> pending;
};

class WorldState {
 public:
  explicit WorldState(int num_ranks)
      : size_(num_ranks),
        mailboxes_(static_cast<std::size_t>(num_ranks)),
        pools_(static_cast<std::size_t>(num_ranks)),
        aborted_(std::make_shared<std::atomic<bool>>(false)) {
    DSHUF_CHECK_GT(num_ranks, 0, "world needs at least one rank");
    DSHUF_CHECK_LE(num_ranks, kMaxThreadedRanks,
                   "a threaded World of "
                       << num_ranks << " ranks would oversubscribe the host "
                       << "(one OS thread per rank); run paper-scale M on "
                       << "the event-driven netsim::VirtualWorld instead");
    slots_.init(num_ranks);
  }

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] RankMailbox& mailbox(int rank) {
    DSHUF_CHECK(rank >= 0 && rank < size_, "rank out of range: " << rank);
    return mailboxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] BufferPool& pool(int rank) {
    DSHUF_CHECK(rank >= 0 && rank < size_, "rank out of range: " << rank);
    return pools_[static_cast<std::size_t>(rank)];
  }

  /// Final delivery into `dest`'s mailbox: match a parked receive or queue
  /// the message. Called from sender threads and the injector timer thread.
  void deposit(int dest, Message msg);

  /// Route a send: through the fault injector when one is installed,
  /// otherwise straight to deposit().
  void send(int source, int dest, Message msg) {
    if (injector_) {
      injector_->submit(source, dest, std::move(msg));
    } else {
      deposit(dest, std::move(msg));
    }
  }

  void set_fault_plan(const FaultPlan& plan) {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    injector_ = std::make_unique<FaultInjector>(
        plan, size_, [this](int dest, Message msg) {
          deposit(dest, std::move(msg));
        });
  }
  void clear_fault_plan() {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    injector_.reset();
  }
  [[nodiscard]] bool has_fault_plan() const { return injector_ != nullptr; }
  void fence_faults() {
    if (injector_) injector_->fence();
  }
  [[nodiscard]] FaultStats fault_stats() const {
    return injector_ ? injector_->stats() : FaultStats{};
  }

  void begin_run() {
    running_ = true;
    if (injector_) injector_->begin_run();
  }
  void end_run() { running_ = false; }

  std::shared_ptr<std::atomic<bool>> aborted_flag() { return aborted_; }
  [[nodiscard]] bool is_aborted() const {
    return aborted_->load(std::memory_order_seq_cst);
  }
  void abort() {
    {
      // The flag must flip under barrier_mu_: a rank between evaluating
      // the barrier predicate and blocking would otherwise miss this
      // notify and sleep forever (the barrier wait, unlike request/recv
      // waits, has no poll timeout to rescue it).
      std::lock_guard<RankedMutex> lk(barrier_mu_);
      aborted_->store(true, std::memory_order_seq_cst);
    }
    barrier_cv_.notify_all();
    // Wake any parked receive requests and any blocking recv() waiter.
    for (auto& mb : mailboxes_) {
      {
        std::lock_guard<RankedMutex> lk(mb.mu);
        for (std::size_t i = 0; i < mb.pending.size(); ++i) {
          mb.pending[i].state->cv.notify_all();
        }
      }
      mb.cv.notify_all();
    }
  }
  void reset_abort() { aborted_->store(false, std::memory_order_seq_cst); }

  void barrier() {
    std::unique_lock<RankedMutex> lk(barrier_mu_);
    const std::uint64_t gen = barrier_gen_;
    if (++barrier_count_ == size_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      lk.unlock();
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lk, [&] { return barrier_gen_ != gen || is_aborted(); });
    DSHUF_CHECK(!is_aborted(), "world aborted while in barrier");
  }

  CollectiveSlots& slots() { return slots_; }

  /// Verify clean shutdown: no stray messages or dangling receives, and no
  /// message still parked inside the fault injector.
  void check_drained() {
    // The timer thread may still be mid-deposit for a message a rank
    // already consumed; settle that before judging leftovers.
    if (injector_) injector_->quiesce_in_flight();
    DSHUF_CHECK(!injector_ || injector_->pending() == 0,
                "world finished with "
                    << (injector_ ? injector_->pending() : 0)
                    << " message(s) still delayed in the fault injector "
                       "(fence_faults() + drain before returning)");
    for (int r = 0; r < size_; ++r) {
      auto& mb = mailbox(r);
      std::lock_guard<RankedMutex> lk(mb.mu);
      DSHUF_CHECK(mb.arrived.empty(),
                  "rank " << r << " finished with " << mb.arrived.size()
                          << " unreceived message(s)");
      DSHUF_CHECK(mb.pending.empty(),
                  "rank " << r << " finished with " << mb.pending.size()
                          << " unmatched irecv(s)");
    }
  }

 private:
  int size_;
  std::vector<RankMailbox> mailboxes_;
  std::vector<BufferPool> pools_;

  RankedMutex barrier_mu_{LockRank::kCommBarrier, "comm.barrier"};
  std::condition_variable_any barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;

  CollectiveSlots slots_;

  std::shared_ptr<std::atomic<bool>> aborted_;
  std::unique_ptr<FaultInjector> injector_;
  bool running_ = false;
};

namespace {

bool matches(const PendingRecv& want, int source, int tag) {
  return (want.source == kAnySource || want.source == source) &&
         (want.tag == kAnyTag || want.tag == tag);
}

bool matches_msg(int want_source, int want_tag, const Message& m) {
  return (want_source == kAnySource || want_source == m.source) &&
         (want_tag == kAnyTag || want_tag == m.tag);
}

}  // namespace

void WorldState::deposit(int dest, Message msg) {
  auto& mb = mailbox(dest);
  std::shared_ptr<ThreadedRequestState> matched;
  {
    std::lock_guard<RankedMutex> lk(mb.mu);
    for (std::size_t i = 0; i < mb.pending.size(); ++i) {
      if (matches(mb.pending[i], msg.source, msg.tag)) {
        matched = mb.pending.take(i).state;
        break;
      }
    }
    if (!matched) mb.arrived.push_back(std::move(msg));
  }
  if (matched) {
    matched->complete(std::move(msg));
  } else {
    mb.cv.notify_all();  // wake a blocking recv() scanning `arrived`
  }
}

/// The ranks-as-threads endpoint over WorldState. Internal to this TU: the
/// only way to get one is through World::run.
class ThreadedCommunicator final : public Communicator {
 public:
  ThreadedCommunicator(WorldState* world, int rank)
      : Communicator(rank), world_(world) {}

  [[nodiscard]] int size() const override { return world_->size(); }

  Request isend(int dest, int tag, std::vector<std::byte> payload) override {
    // Buffered send: locally complete (even a dropped message "completes"
    // — exactly the guarantee a buffered MPI_Isend gives over a lossy
    // fabric).
    auto state = std::make_shared<ThreadedRequestState>();
    state->aborted = world_->aborted_flag();
    send(dest, tag, std::move(payload));
    state->done = true;
    return make_request(std::move(state));
  }

  void send(int dest, int tag, std::vector<std::byte> payload) override {
    DSHUF_CHECK(dest >= 0 && dest < size(), "send destination out of range");
    Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload = std::move(payload);
    DSHUF_COUNTER("comm.isend").add();
    DSHUF_COUNTER("comm.bytes_sent").add(msg.payload.size());
    world_->send(rank_, dest, std::move(msg));
  }

  Request irecv(int source, int tag) override {
    DSHUF_CHECK(source == kAnySource || (source >= 0 && source < size()),
                "irecv source out of range");
    auto state = std::make_shared<ThreadedRequestState>();
    state->aborted = world_->aborted_flag();

    auto& mb = world_->mailbox(rank_);
    bool completed = false;
    Message found;
    {
      std::lock_guard<RankedMutex> lk(mb.mu);
      for (std::size_t i = 0; i < mb.arrived.size(); ++i) {
        if (matches_msg(source, tag, mb.arrived[i])) {
          found = mb.arrived.take(i);
          completed = true;
          break;
        }
      }
      if (!completed) {
        mb.pending.push_back(PendingRecv{source, tag, state});
      }
    }
    if (completed) state->complete(std::move(found));
    return make_request(std::move(state));
  }

  Message recv(int source, int tag) override {
    // Scan-and-wait over the mailbox directly, not irecv + wait: a
    // blocking receive needs no Request object, so the exchange's steady
    // state can receive without allocating. Earlier-posted irecvs still
    // win — deposit matches parked receives before queueing into
    // `arrived`.
    DSHUF_CHECK(source == kAnySource || (source >= 0 && source < size()),
                "recv source out of range");
    auto& mb = world_->mailbox(rank_);
    std::unique_lock<RankedMutex> lk(mb.mu);
    for (;;) {
      for (std::size_t i = 0; i < mb.arrived.size(); ++i) {
        if (matches_msg(source, tag, mb.arrived[i])) {
          return mb.arrived.take(i);
        }
      }
      DSHUF_CHECK(!world_->is_aborted(), "world aborted while in recv");
      // Poll with a timeout so an aborted world (peer threw) wakes us even
      // if the notification raced our wait registration.
      mb.cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  std::optional<Message> poll(int source, int tag) override {
    auto& mb = world_->mailbox(rank_);
    std::lock_guard<RankedMutex> lk(mb.mu);
    for (std::size_t i = 0; i < mb.arrived.size(); ++i) {
      if (matches_msg(source, tag, mb.arrived[i])) {
        return mb.arrived.take(i);
      }
    }
    return std::nullopt;
  }

  bool cancel(Request& request) override {
    DSHUF_CHECK(request.valid(), "cancel() on an empty request");
    auto& mb = world_->mailbox(rank_);
    std::lock_guard<RankedMutex> lk(mb.mu);
    for (std::size_t i = 0; i < mb.pending.size(); ++i) {
      if (mb.pending[i].state == request_state(request)) {
        auto state = mb.pending.take(i).state;
        std::lock_guard<RankedMutex> slk(state->mu);
        state->cancelled_flag = true;
        return true;
      }
    }
    return false;  // already matched (or a send request) — nothing to cancel
  }

  [[nodiscard]] BufferPool& pool() override { return world_->pool(rank_); }

  [[nodiscard]] bool fault_injection_enabled() const override {
    return world_->has_fault_plan();
  }

  void fence_faults() override { world_->fence_faults(); }

  void barrier() override {
    DSHUF_COUNTER("comm.barrier").add();
    world_->barrier();
  }

  [[nodiscard]] std::uint64_t now_us() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void backoff(std::chrono::microseconds pause) override {
    std::this_thread::sleep_for(pause);
  }

 protected:
  [[nodiscard]] detail::CollectiveSlots& collective_slots() override {
    return world_->slots();
  }

 private:
  WorldState* world_;
};

}  // namespace detail

bool Request::test() const {
  DSHUF_CHECK(state_ != nullptr, "test() on an empty request");
  return state_->test();
}

void Request::wait() {
  DSHUF_CHECK(state_ != nullptr, "wait() on an empty request");
  state_->wait();
}

bool Request::wait_for(std::chrono::microseconds timeout) {
  DSHUF_CHECK(state_ != nullptr, "wait_for() on an empty request");
  return state_->wait_for(timeout);
}

bool Request::cancelled() const {
  DSHUF_CHECK(state_ != nullptr, "cancelled() on an empty request");
  return state_->cancelled();
}

const Message& Request::message() const {
  DSHUF_CHECK(state_ != nullptr, "message() on an empty request");
  return state_->message();
}

void wait_all(std::span<Request> requests) {
  for (auto& r : requests) r.wait();
}

std::optional<Message> Communicator::recv_for(
    int source, int tag, std::chrono::microseconds timeout) {
  Request r = irecv(source, tag);
  if (r.wait_for(timeout)) return r.message();
  if (cancel(r)) return std::nullopt;
  // The message arrived between the timeout and the cancel: take it.
  r.wait();
  return r.message();
}

namespace {

/// True when two n-element buffers are the same or do not overlap.
bool same_or_disjoint(const double* a, const double* b, std::size_t n) {
  const std::less<const double*> before;
  return a == b || !before(a, b + n) || !before(b, a + n);
}

}  // namespace

void Communicator::allreduce_sum(std::span<const double> contribution,
                                 std::span<double> out) {
  const std::size_t n = contribution.size();
  DSHUF_CHECK_EQ(out.size(), n,
                 "allreduce result must have the contribution's length");
  DSHUF_CHECK(same_or_disjoint(out.data(), contribution.data(), n),
              "allreduce result may alias its contribution only exactly");
  auto& slots = collective_slots().reduce;
  slots[static_cast<std::size_t>(rank_)] = {contribution.data(), out.data(),
                                            n};
  barrier();
  // Every rank sees every length before any rank writes into a peer's
  // buffer, so a mismatch throws everywhere and no rank is left writing
  // into memory whose owner has unwound.
  for (const auto& s : slots) {
    DSHUF_CHECK_EQ(s.size, n,
                   "allreduce contributions must have equal length");
  }
  // Rank r owns elements [lo, hi): it reads all M addends of a block
  // before writing the block's sums into every rank's result. No two
  // ranks touch the same element, so a result that is its contribution
  // is read before it is overwritten.
  const auto m = static_cast<std::size_t>(size());
  const auto r = static_cast<std::size_t>(rank_);
  const std::size_t lo = n * r / m;
  const std::size_t hi = n * (r + 1) / m;
  constexpr std::size_t kBlock = 256;
  double acc[kBlock];
  for (std::size_t b = lo; b < hi; b += kBlock) {
    const std::size_t len = std::min(kBlock, hi - b);
    // The chain starts at +0.0, not at rank 0's addend: +0.0 + (-0.0) is
    // +0.0, and DESIGN.md §6 fixes the chain every caller's bits rest on.
    const double* first = slots[0].contribution + b;
    for (std::size_t i = 0; i < len; ++i) acc[i] = 0.0 + first[i];
    for (std::size_t q = 1; q < m; ++q) {
      const double* src = slots[q].contribution + b;
      for (std::size_t i = 0; i < len; ++i) acc[i] += src[i];
    }
    for (const auto& s : slots) std::copy_n(acc, len, s.out + b);
  }
  barrier();  // every result complete, no peer still reads a contribution
}

std::vector<double> Communicator::allreduce_sum(
    std::span<const double> contribution) {
  std::vector<double> out(contribution.size());
  allreduce_sum(contribution, out);
  return out;
}

std::vector<std::byte> Communicator::bcast(int root,
                                           std::vector<std::byte> payload) {
  DSHUF_CHECK(root >= 0 && root < size(), "bcast root out of range");
  auto& slots = collective_slots().bcast;
  if (rank_ == root) {
    slots[static_cast<std::size_t>(root)] = std::move(payload);
  }
  barrier();
  std::vector<std::byte> out = slots[static_cast<std::size_t>(root)];
  barrier();
  return out;
}

std::vector<std::vector<std::byte>> Communicator::alltoallv(
    std::vector<std::vector<std::byte>> send_per_dest) {
  DSHUF_CHECK_EQ(send_per_dest.size(), static_cast<std::size_t>(size()),
                 "alltoallv needs one buffer per destination");
  auto& slots = collective_slots().a2a;
  slots[static_cast<std::size_t>(rank_)] = std::move(send_per_dest);
  barrier();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  for (int src = 0; src < size(); ++src) {
    out[static_cast<std::size_t>(src)] =
        slots[static_cast<std::size_t>(src)][static_cast<std::size_t>(rank_)];
  }
  barrier();
  return out;
}

std::vector<std::vector<std::byte>> Communicator::gather(
    int root, std::vector<std::byte> payload) {
  DSHUF_CHECK(root >= 0 && root < size(), "gather root out of range");
  // Express over alltoallv: everyone sends to root only.
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(size()));
  send[static_cast<std::size_t>(root)] = std::move(payload);
  auto received = alltoallv(std::move(send));
  if (rank_ != root) return {};
  return received;
}

std::vector<std::vector<std::byte>> Communicator::allgather(
    std::vector<std::byte> payload) {
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(size()));
  for (auto& s : send) s = payload;
  return alltoallv(std::move(send));
}

std::vector<double> Communicator::reduce_sum(
    int root, std::span<const double> contribution) {
  DSHUF_CHECK(root >= 0 && root < size(), "reduce root out of range");
  auto sum = allreduce_sum(contribution);
  if (rank_ != root) return {};
  return sum;
}

std::vector<std::byte> Communicator::scatter(
    int root, std::vector<std::vector<std::byte>> per_dest) {
  DSHUF_CHECK(root >= 0 && root < size(), "scatter root out of range");
  std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(size()));
  if (rank_ == root) {
    DSHUF_CHECK_EQ(per_dest.size(), static_cast<std::size_t>(size()),
                   "scatter needs one payload per destination");
    send = std::move(per_dest);
  }
  auto received = alltoallv(std::move(send));
  return std::move(received[static_cast<std::size_t>(root)]);
}

World::World(int num_ranks)
    : state_(std::make_unique<detail::WorldState>(num_ranks)) {}

World::~World() = default;

int World::size() const { return state_->size(); }

void World::set_fault_plan(const FaultPlan& plan) {
  state_->set_fault_plan(plan);
}

void World::clear_fault_plan() { state_->clear_fault_plan(); }

FaultStats World::fault_stats() const { return state_->fault_stats(); }

void World::run(const std::function<void(Communicator&)>& body) {
  state_->reset_abort();
  state_->begin_run();
  const int n = state_->size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));

  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, r, &body, &errors] {
      try {
        // Rank threads own trace lane r; naming the lane up front means
        // every World body (not just exchanges) renders as "rank r" in
        // merged Chrome traces.
        obs::Tracer::set_thread_track(r);
        if (obs::Tracer::instance().enabled()) {
          obs::Tracer::set_thread_name("rank " + std::to_string(r));
        }
        detail::ThreadedCommunicator c(state_.get(), r);
        body(c);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        state_->abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  state_->end_run();

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  state_->check_drained();
}

}  // namespace dshuf::comm
